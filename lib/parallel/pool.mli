(** A fixed-size pool of OCaml 5 domains with deterministic,
    submission-order result assembly.

    The pool runs one batch at a time. A batch is an array of
    independent items; workers claim items by atomically advancing a
    shared cursor over the submission array (work stealing at item
    granularity — a fast worker steals whatever the slow ones have not
    claimed yet), and every item writes its result into the slot of its
    submission index. Scheduling order is therefore free to vary run to
    run, but {!map} always returns results in submission order and
    {!map_reduce} always folds in submission order — so a pure per-item
    function gives bit-identical output at every [jobs] count. This is
    the shared-nothing discipline of parallel SAT portfolios: corpus
    items are independent, so fan-out is sound and determinism is a
    property of the assembly, not of the schedule.

    Worker-local state: domains carry their own {!Domain.DLS} slots, so
    every domain-local structure of the reasoning stack (the engine
    session registry, the grounding circuit memo, the ambient trace
    collector) is automatically per-worker. Workers are reused across
    batches of the same pool, so that state stays warm from batch to
    batch. Reasoner counters are not domain state: an item's work is
    counted in its own session's [Reasoner.Stats] and returned with
    its result.

    Exceptions: an item that raises does not poison its siblings — the
    remaining items still run. After the batch, the exception of the
    lowest-indexed failing item is re-raised in the caller
    (deterministically, regardless of schedule).

    The pool itself is not thread-safe: batches are submitted from the
    owning (creating) domain, one at a time. Tasks must not themselves
    submit to the same pool. *)

type t

(** [create ~jobs ()] spawns [jobs - 1] worker domains (the submitting
    caller is worker 0, so [jobs = 1] spawns nothing and runs batches
    inline — the sequential baseline is literally sequential code).
    [jobs] is clamped to at least 1. *)
val create : jobs:int -> unit -> t

(** The worker count this pool was created with (after clamping). *)
val jobs : t -> int

(** A sensible default job count for this machine
    ({!Domain.recommended_domain_count}). *)
val default_jobs : unit -> int

(** [map pool f items] runs [f] on every item and returns the results
    in submission order. *)
val map : t -> ('a -> 'b) -> 'a array -> 'b array

(** [mapw pool f items] is {!map} with the executing worker's index
    ([0 .. jobs-1]) passed to [f] — for tagging results (e.g. trace
    spans) with the domain that produced them. The index says only
    which worker ran the item; the result array order is still the
    submission order. *)
val mapw : t -> (worker:int -> 'a -> 'b) -> 'a array -> 'b array

(** [map_reduce pool ~map ~reduce ~init items] maps every item and
    folds the results in submission order:
    [reduce (.. (reduce init r0) ..) rn]. Deterministic for any [jobs]
    count, including non-commutative [reduce]. *)
val map_reduce :
  t -> map:('a -> 'b) -> reduce:('c -> 'b -> 'c) -> init:'c -> 'a array -> 'c

(** Join and discard the worker domains. Further batch submissions
    raise [Invalid_argument]. Idempotent. *)
val shutdown : t -> unit

(** [with_pool ~jobs f] runs [f] with a fresh pool, shutting it down on
    both exits. *)
val with_pool : jobs:int -> (t -> 'a) -> 'a
