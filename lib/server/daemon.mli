(** The long-lived OMQ daemon behind [omq_tool serve].

    [run] is a thin shell around {!Core}: it owns the sockets,
    [select], the worker domains ({!Parallel.Service}), the journal
    file, the signals and the clock, turns each syscall result into a
    {!Core.event} and performs the {!Core.action}s [Core.step] returns.
    Every serving decision — framing, dispatch, admission, the pending
    tokens, journal-before-ack, replay, quarantine, drain, the
    [/metrics] routes — is the core's.

    [jobs] worker domains own the reasoning. Requests are
    newline-delimited {!Omq.Protocol} frames; sessions are routed
    {e sticky}: a session is pinned at open to one worker (round-robin)
    and every later request for it runs on that same worker, so the
    engines it grounded and the rest of the worker's {!Domain.DLS}
    state stay hot — and are never touched from two
    domains (stickiness is a correctness invariant, not just a cache
    policy).

    Resource governance: each request runs under a fresh
    {!Reasoner.Budget} built from the request's {!Omq.Protocol.budget_spec}
    clamped dimension-wise to the daemon's admission caps ([caps]); the
    deadline starts when the request starts executing on its worker. A
    tripped budget degrades that one request to a typed
    [Partial]/[Decide_partial] response (outcome ["timeout"] /
    ["out_of_fuel"], the wire twin of exit codes 124/125) — the daemon,
    the session and every other request are unaffected.

    Fault tolerance (see DESIGN.md for the invariants):
    - {e journal-before-ack}: with [journal] set, every open / insert /
      retract / close is appended to the {!Journal} and fsync'd before
      its acknowledgement is written; on startup the journal's live
      sessions are replayed before the first accept, so a
      killed-and-restarted daemon answers every acknowledged session
      identically. The journal is compacted to one open per live
      session past [journal_compact] bytes.
    - {e supervision}: with [supervise] set, a worker whose current job
      has run longer than the deadline is quarantined
      ({!Parallel.Service.replace}); its in-flight requests fail with
      the retryable [worker_lost], and its sessions are rebuilt from
      their in-memory logs on the fresh domain (works without a disk
      journal). [serve.supervision.*] counters land in
      [Obs.Metrics.global].
    - {e hardened edges}: requests beyond [max_inflight] are shed with
      the retryable [overloaded]; a connection whose unsent output
      exceeds [max_outbuf] bytes (a reader that stopped reading) is
      disconnected.

    Observability: when [trace] is set, every request runs under a
    private collector on its worker, absorbed into the daemon's ambient
    collector in completion order as a ["serve.request"] span tagged
    with the worker's [domain]; startup replay is a ["serve.recovery"]
    span. The merged trace is exported to the given file on shutdown. *)

type addr =
  | Unix_path of string  (** Unix domain socket; unlinked on shutdown *)
  | Tcp of string * int  (** bind host (numeric or name) and port *)

val pp_addr : addr Fmt.t

(** The socket domain and address of [addr], a host name resolved with
    [gethostbyname] — the one resolver of the daemon's listener, the
    client and the load generator.
    @raise Not_found when the host does not resolve. *)
val sockaddr_of : addr -> Unix.socket_domain * Unix.sockaddr

type config = {
  addr : addr;
  jobs : int;  (** worker domains (clamped to >= 1) *)
  caps : Omq.Protocol.budget_spec;
      (** admission caps: per-request budgets are clamped to these *)
  max_frame : int;  (** request frames longer than this are rejected
                        ([frame_too_large]) and the rest of the
                        oversized line is discarded *)
  trace : (Obs.Export.format * string) option;
  log : bool;  (** startup/shutdown notes on stderr *)
  journal : string option;  (** journal directory; [None] = no journal *)
  journal_compact : int;  (** compact past this many bytes; <= 0 never *)
  supervise : float option;
      (** quarantine a worker busy on one job longer than this (s) *)
  max_inflight : int option;  (** admission cap; [None] = unbounded *)
  max_outbuf : int;  (** disconnect a conn whose unsent output exceeds this *)
  shutdown_grace : float;  (** drain deadline after shutdown/signal (s) *)
  signals : bool;
      (** route SIGTERM/SIGINT through graceful shutdown, and dump the
          flight recorder on SIGUSR1 *)
  metrics_addr : addr option;
      (** serve Prometheus text exposition on [GET /metrics] (and the
          telemetry dump on [GET /telemetry]) at this address, plain
          HTTP/1.0 on the same select loop; [None] = no endpoint *)
  telemetry : bool;
      (** flight recorder + request-latency histogram + batched
          per-worker GC sampling (first job, then every 32nd); off
          leaves one load+branch per completion *)
  flight_dump : string option;
      (** SIGUSR1 dump target; [None] = one JSON line on stderr *)
  flight_capacity : int;  (** flight-recorder ring size *)
}

(** Build a {!config}; every field but [addr] has the serving default
    ([jobs = 1], no caps, {!Core.default_max_frame}, no trace, quiet,
    no journal, {!Core.default_journal_compact}, no supervision,
    unbounded admission, {!Core.default_max_outbuf},
    {!Core.default_shutdown_grace}, no signal handlers, no metrics
    endpoint, telemetry on,
    flight dump to stderr, {!Telemetry.default_capacity}). *)
val config :
  addr:addr ->
  ?jobs:int ->
  ?caps:Omq.Protocol.budget_spec ->
  ?max_frame:int ->
  ?trace:Obs.Export.format * string ->
  ?log:bool ->
  ?journal:string ->
  ?journal_compact:int ->
  ?supervise:float ->
  ?max_inflight:int ->
  ?max_outbuf:int ->
  ?shutdown_grace:float ->
  ?signals:bool ->
  ?metrics_addr:addr ->
  ?telemetry:bool ->
  ?flight_dump:string ->
  ?flight_capacity:int ->
  unit ->
  config

(** [run cfg] serves until a [shutdown] request (or, with [signals], a
    SIGTERM/SIGINT): accepts connections, answers every in-flight
    request, flushes, closes and returns [Ok ()]. Setup failures (bind,
    listen) return [Error]. *)
val run : config -> (unit, string) result
