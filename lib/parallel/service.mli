(** Long-lived worker domains with per-worker mailboxes — the serving
    counterpart of {!Pool}.

    {!Pool} is batch-shaped: one submission array, an atomic work-stealing
    cursor, a join barrier. A server needs the opposite discipline:
    requests arrive one at a time, each must run on a {e specific} worker
    (sticky routing — an OMQ session's engines and other
    {!Domain.DLS} state live on the domain that created them and are
    neither shared nor movable), and nobody ever joins a batch. A
    service therefore keeps one FIFO mailbox per worker domain and a
    shared completion queue the owner drains at its leisure.

    Ownership: [submit], [drain], [busy_since], [replace] and [shutdown]
    are called from the one owning domain (the event loop); jobs run on
    their worker and their results cross back through the completion
    queue, synchronised by the queue's mutex. The [wakeup] callback runs
    {e on the worker} right after a completion is enqueued — it must be
    async-signal-ish cheap and thread-safe (the daemon writes one byte
    to a self-pipe to nudge its [select]).

    Unlike {!Pool}, the owner is not a worker: all [jobs] workers are
    spawned domains, and the owner's own domain-local state is never
    touched by jobs. *)

type 'r t

(** [create ~jobs ~wakeup ()] spawns [jobs] worker domains (clamped to
    at least 1), each with an empty mailbox. [clock] (default: constant
    [0.]) timestamps job starts for {!busy_since}; pass a monotone
    clock such as [Obs.Clock.now] to make deadline supervision
    meaningful — this library deliberately takes no clock dependency of
    its own. *)
val create :
  jobs:int -> wakeup:(unit -> unit) -> ?clock:(unit -> float) -> unit -> 'r t

val jobs : 'r t -> int

(** [submit t ~worker job] appends [job] to worker [worker mod jobs]'s
    mailbox. Jobs on one worker run in submission order (per-session
    FIFO is exactly sticky routing plus this). The job's result is
    enqueued for {!drain}; a job that raises is dropped from the
    completion stream and its exception is re-raised by {!shutdown} —
    wrap jobs that may fail so they return a value instead.
    @raise Invalid_argument after {!shutdown}. *)
val submit : 'r t -> worker:int -> (unit -> 'r) -> unit

(** Completed results, in completion order (across workers: the order
    they finished, not the order submitted). Never blocks. *)
val drain : 'r t -> 'r list

(** Jobs submitted but not yet drained (queued + running + completed
    but undrained). [0] means the service is idle and {!drain} would
    return []. Jobs discarded by {!replace} leave this count the moment
    they are discarded. *)
val in_flight : 'r t -> int

(** {1 Supervision}

    A worker domain can wedge (an engine bug spinning forever, a job
    blocked on something that never comes). OCaml domains cannot be
    cancelled, so recovery means {e abandoning} the domain, not killing
    it. *)

(** [busy_since t ~worker] is the [clock] timestamp at which the
    worker's current job started, or [None] when it is idle. The owner
    compares this against a deadline to detect a wedged worker. *)
val busy_since : 'r t -> worker:int -> float option

(** [replace t ~worker] quarantines the worker and installs a fresh
    domain at the same index. The old mailbox is marked abandoned: its
    queued jobs are discarded, and the result of a job it is still
    running — should the domain ever finish — is silently dropped, never
    enqueued or double-counted. Returns how many jobs were lost
    (discarded from the queue, plus 1 if one was running); {!in_flight}
    is decremented by the same amount, so the owner must fail those
    requests itself (it knows which ones it routed here). The abandoned
    domain is never joined — a truly wedged one is leaked by design.
    @raise Invalid_argument after {!shutdown}. *)
val replace : 'r t -> worker:int -> int

(** Number of {!replace} calls so far. *)
val replaced : 'r t -> int

(** Stop accepting work, let every queued job finish, join the workers,
    then re-raise the first job exception if any job raised. Remaining
    completions are still available via {!drain}. Abandoned domains are
    not joined. Idempotent. *)
val shutdown : 'r t -> unit
