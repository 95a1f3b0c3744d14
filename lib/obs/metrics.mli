(** A named counter/gauge/histogram registry.

    Metric names are stable snake_case with dots for namespacing (e.g.
    ["serve.requests"], ["bench.engine.chain8.speedup"]) — they
    become the keys of the exported JSON objects ([BENCH_omq.json]),
    so renaming one is a schema change for downstream consumers.

    Counters are monotonic ints, gauges hold the last value set,
    histograms keep a summary (count/sum/min/max/mean) plus log-spaced
    buckets for quantile estimation. Re-using a name with a different
    metric kind raises [Invalid_argument]. *)

type t

val create : unit -> t

(** The default registry — one per domain (the daemon's event loop and
    the bench harness write here). Being domain-local keeps writes
    race-free without a lock. Registries are never merged: work done on
    another domain is written here by the owning domain, from values
    handed to it (the daemon's completions carry a worker's GC sample
    and its session's {!Reasoner.Stats} delta to the loop). *)
val global : unit -> t


(** Add to a counter (created at 0 on first use). *)
val incr : ?by:int -> t -> string -> unit

(** Set a counter to an absolute value — for publishing snapshots of
    externally-held counters, where re-publication must not double
    count. *)
val set_count : t -> string -> int -> unit

(** Set a gauge. *)
val set : t -> string -> float -> unit

(** Record one observation into a histogram. *)
val observe : t -> string -> float -> unit

val counter_value : t -> string -> int option
val gauge_value : t -> string -> float option

(** [(count, sum, min, max)] of a histogram, if present. *)
val histogram_stats : t -> string -> (int * float * float * float) option

(** The static log-spaced bucket upper bounds shared by every histogram
    (1-2.5-5 steps per decade over 1e-6 .. 1e3, seconds). *)
val bucket_bounds : float array

(** Per-bucket observation counts of a histogram (a fresh copy; index
    [i] counts observations [<= bucket_bounds.(i)], with one final
    overflow slot). *)
val histogram_buckets : t -> string -> int array option

(** [quantile t name q] estimates the [q]-quantile ([0..1]) of a
    histogram by linear interpolation inside the bucket holding the
    q-rank observation, clamped to the recorded min/max. [None] if the
    name is not a histogram or has no observations. *)
val quantile : t -> string -> float -> float option

(** Registered metric names, sorted. *)
val names : t -> string list

val is_empty : t -> bool

(** One flat JSON object keyed by metric name (sorted); counters are
    integers, gauges numbers, histograms
    [{"count","sum","min","max","mean"}] sub-objects. *)
val to_json : t -> Json.t

val pp : t Fmt.t
