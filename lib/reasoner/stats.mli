(** Instrumentation counters threaded through the incremental engine:
    groundings built, solver invocations, CDCL effort
    (decisions/propagations/conflicts), session-cache hits/misses, and
    wall time per phase. *)

type t = {
  mutable groundings : int;  (** SAT groundings built from scratch *)
  mutable solves : int;  (** solver invocations (incl. assumption solves) *)
  mutable decisions : int;
  mutable propagations : int;
  mutable conflicts : int;
  mutable cache_hits : int;  (** session-cache lookups that reused an engine *)
  mutable cache_misses : int;  (** lookups that had to ground *)
  mutable memo_hits : int;  (** grounding-memo replays of a compiled circuit *)
  mutable memo_misses : int;  (** grounding-memo expansions from scratch *)
  mutable budget_timeouts : int;  (** budget trips on a wall-clock deadline *)
  mutable budget_fuel_trips : int;  (** budget trips on fuel / clause caps *)
  mutable ground_seconds : float;  (** wall time spent grounding *)
  mutable solve_seconds : float;  (** wall time spent in the solver *)
}

val create : unit -> t

(** The calling domain's default record; every engine operation run on
    that domain is mirrored here. Domain-local so parallel workers never
    contend (or tear) on the counters — aggregate across workers by
    summing per-item snapshots ({!add}) at join, as the corpus runner
    does. *)
val global : unit -> t

val reset : t -> unit
val copy : t -> t

(** [add ~into t] accumulates [t]'s counters into [into]. *)
val add : into:t -> t -> unit

(** [diff b a] is the field-wise difference [b - a] as a fresh record:
    the work done between snapshot [a] and the later snapshot [b]. *)
val diff : t -> t -> t

(** [timed credit f] runs [f], passing its wall time to [credit]. *)
val timed : (float -> unit) -> (unit -> 'a) -> 'a

val pp : t Fmt.t

(** Every field of {!t} as one JSON object.

    The schema is stable — bench and CI consumers select keys with jq,
    so adding a field is fine but renaming or removing one is a
    breaking change. Keys (snake_case, in emission order):

    - ["groundings"], ["solves"], ["decisions"], ["propagations"],
      ["conflicts"] : integers
    - ["cache_hits"], ["cache_misses"] : integers
    - ["memo_hits"], ["memo_misses"] : integers (grounding-memo traffic)
    - ["budget_timeouts"], ["budget_fuel_trips"] : integers
    - ["ground_seconds"], ["solve_seconds"] : numbers (seconds)

    The wire protocol carries this value as-is (eval [stats], server
    stats [reasoner]). *)
val json : t -> Obs.Json.t

(** [Obs.Json.render (json t)]: the one-line rendering of {!json}. *)
val to_json : t -> string

(** [publish ?prefix ?into t] writes a snapshot of [t] into an
    {!Obs.Metrics} registry (default {!Obs.Metrics.global}) as
    [<prefix>.<field>] — e.g. ["reasoner.cache_hits"] — using the same
    snake_case field names as {!to_json}. Writes are absolute, so
    publishing repeatedly is idempotent rather than accumulating. *)
val publish : ?prefix:string -> ?into:Obs.Metrics.t -> t -> unit
