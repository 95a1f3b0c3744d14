(** The daemon's decisions, with no IO.

    A [t] is the whole serving state: connections (their input framing
    and unsent-byte counts), sessions, the pending-token table, replay
    and quarantine bookkeeping, drain, counters and the flight
    recorder. {!step} takes one event and returns the actions the
    shell ({!Daemon.run}) must perform, in order. The core never reads
    a clock, a socket, a file or a domain: time arrives in {!Tick}s,
    bytes in {!Input}s, job results in {!Completed}s, journal outcomes
    in {!Journaled}s.

    Shell contract:
    - every {!Write} is followed, once the shell has tried to send it,
      by a {!Flushed} with the bytes the socket took (possibly [0]);
      later sends on writability report further {!Flushed}s;
    - an {!Append} or {!Compact} is the last action of its list, and
      the shell answers it with {!Journaled} before feeding any other
      event ({!Flushed}/{!Hangup} from performing earlier actions of
      the same list excepted);
    - a {!Tick} carries the time and each worker's busy stamp read
      {e after} draining completions, which are then fed after the
      tick. *)

(** What a worker job hands back; built by the core's jobs. *)
type reply

(** ["ok"], the budget-trip reason, or ["error"]: a job's outcome for
    traces. *)
val outcome : reply -> string

type completion = {
  token : int;
  worker : int;
  reply : reply;
  gc : (float * float) option;
      (** the worker's major words and minor collections, when this job
          sampled them *)
}

type event =
  | Connected of { conn : int; http : bool }
      (** a wire ([http = false]) or [/metrics] connection was accepted *)
  | Input of int * string  (** bytes read from a connection *)
  | Hangup of int  (** the peer is gone (EOF or a failed read/write) *)
  | Flushed of int * int  (** the socket took this many unsent bytes *)
  | Completed of completion
  | Journaled of (int, string) result
      (** the outcome of the outstanding {!Append}/{!Compact}: the
          journal's size in bytes, or the error *)
  | Tick of { now : float; busy : float option array }
      (** the time, and when each worker's current job started *)
  | Signal of [ `Term | `Usr1 ]

type action =
  | Submit of { token : int; worker : int; op : string; job : unit -> reply }
      (** run [job] on [worker] and feed back its {!completion}; [job]
          never raises *)
  | Append of Journal.entry  (** append and fsync, then {!Journaled} *)
  | Compact of Journal.entry list
      (** rewrite the journal to exactly these entries, then {!Journaled} *)
  | Write of int * string  (** queue bytes on a connection *)
  | Close of int  (** close a connection; the core has forgotten it *)
  | Replace of int  (** abandon a worker's domain for a fresh one at its index *)
  | Dump of Obs.Json.t  (** the flight-recorder dump (SIGUSR1) *)
  | Stop  (** drained, or the shutdown grace passed: exit the loop *)

type t

(** Daemon build version, reported in [stats] and telemetry dumps. *)
val version : string

val default_max_frame : int
val default_max_outbuf : int
val default_journal_compact : int
val default_shutdown_grace : float

(** A fresh core at time [now] with no connections or sessions. The
    options are {!Daemon.config}'s fields of the same names; counters
    go to [metrics] (default: a fresh registry). *)
val create :
  ?jobs:int ->
  ?caps:Omq.Protocol.budget_spec ->
  ?max_frame:int ->
  ?journal_compact:int ->
  ?supervise:float ->
  ?max_inflight:int ->
  ?max_outbuf:int ->
  ?shutdown_grace:float ->
  ?telemetry:bool ->
  ?flight_capacity:int ->
  ?metrics:Obs.Metrics.t ->
  now:float ->
  unit ->
  t

(** [recover t ~bytes entries] attaches a journal of [bytes] bytes
    holding [entries]: from now on every acknowledged state change is
    {!Append}ed before its ack. Fresh session ids start past every
    journalled one, and each live session is resubmitted as a replay
    job; requests for it get the retryable [worker_lost] until its
    replay completes. *)
val recover : t -> bytes:int -> Journal.entry list -> action list

val step : t -> event -> action list

(** Jobs submitted and not yet completed or failed by a quarantine. *)
val in_flight : t -> int

(** Sessions whose replay has not completed. *)
val replaying : t -> int

(** Whether a [shutdown] request or SIGTERM has been seen. *)
val shutting : t -> bool

(** Each live session, folded to the one [Open] on its net data that
    compaction would write, in id order. *)
val live : t -> Journal.entry list

(** [expected_eval ~ontology ~data ~query ~max_extra] is the id-less
    {!Omq.Protocol.render_response} of the complete [Evaled] answer
    that every unbudgeted eval of a session opened with these fields
    gets, computed in process (the [expected] of an
    {!Loadgen.spec}). [Error] carries the message the open would be
    rejected with. *)
val expected_eval :
  ontology:string ->
  data:string ->
  query:string ->
  max_extra:int ->
  (string, string) result
