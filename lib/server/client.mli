(** A blocking client for the {!Omq.Protocol} wire format — the CLI's
    [omq_tool request], the load generator and the test suite all speak
    through it. One request in flight at a time: {!call} assigns a fresh
    ["id"], writes one frame and reads until the response echoing that
    id arrives (unsolicited frames with other ids are discarded). The
    load generator drives many clients from one [select] loop through
    {!fd}, {!send} and {!read_lines} instead. *)

type t

(** [connect addr] dials the daemon. Refused/missing endpoints are
    retried up to [attempts] times (default 50) with jittered
    exponential backoff: attempt [n] sleeps uniformly in [[d/2, d]] for
    [d = min 1.0 (base_delay * 2^n)] ([base_delay] default 0.02 s) —
    daemons start asynchronously, and jitter keeps a fleet of clients
    from reconnecting in lockstep. *)
val connect :
  ?attempts:int -> ?base_delay:float -> Daemon.addr -> (t, string) result

(** Send [request], return the matching decoded response. [Error] on
    I/O failure, EOF, or an undecodable frame.

    A {!Omq.Protocol.retryable} rejection ([overloaded] /
    [worker_lost]) is the daemon's promise that the request had no
    effect; with [retries > 0] (default 0) such a rejection is retried
    up to that many times by resending the {e same} frame — same id —
    after the same jittered backoff as {!connect}. The first
    non-retryable response (or the last retryable one when retries run
    out) is returned. *)
val call :
  ?retries:int ->
  ?base_delay:float ->
  t ->
  Omq.Protocol.request ->
  (Omq.Protocol.response, string) result

(** Write [request] as one frame under a fresh ["id"], without
    waiting for its response. [Error] on a write failure. *)
val send : t -> Omq.Protocol.request -> (unit, string) result

(** The connection's socket, for a caller's [select]. *)
val fd : t -> Unix.file_descr

(** One [read] on the connection, then every complete response line
    buffered so far, oldest first (possibly none; a partial line stays
    buffered). [Error] on EOF or a read error. *)
val read_lines : t -> (string list, string) result

(** Escape hatch for protocol testing: send [line] verbatim (one frame;
    the newline is appended) and return the next response line raw. *)
val raw : t -> string -> (string, string) result

val close : t -> unit
