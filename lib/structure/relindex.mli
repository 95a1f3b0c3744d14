(** Per-relation argument indexes over dense element ids.

    A {!t} is an immutable snapshot of one {!Instance.t}: elements are
    interned into dense ids in [Element.compare] order and each
    relation's tuples live in a flat row array in fact-set order, so all
    iteration orders are deterministic. Access patterns (bitmask of
    bound argument positions, hexastore-style) acquire a hash table
    lazily: a pattern is scanned until it has been probed more than a
    small cutoff on a relation large enough to pay for the build.

    Indexes are cached per domain ([Domain.DLS], bounded) keyed by
    {!Instance.uid}; since any instance mutation yields a fresh uid the
    cache can never serve a stale index, and since the cache is
    domain-local the same instance may be indexed independently by
    concurrent worker domains without sharing. *)

type t

(** Build or fetch the cached index for this instance (per-domain cache
    keyed by {!Instance.uid}). *)
val of_instance : Instance.t -> t

(** Build an index bypassing the cache (used by tests). *)
val build : Instance.t -> t

(** The cached index for this instance on the calling domain, if any —
    without building one. *)
val cached : Instance.t -> t option

(** Number of pattern hash tables built so far — observable measure of
    the adaptive scan→hash switchover. *)
val tables_built : t -> int

(** Dense id of an element, or [-2] when it does not occur in the
    instance (no row entry is negative, so [-2] can never match). *)
val id_of : t -> Element.t -> int

val elem_of : t -> int -> Element.t

(** Tuple count of a relation (0 when absent). *)
val cardinality : t -> string -> int

(** Distinct values at an argument position (0 when absent). *)
val distinct_at : t -> string -> int -> int

(** [iter_matches t r ~pat f] calls [f rows base] for every tuple of
    [r] whose entries agree with [pat] ([pat.(p) >= 0] requires that
    value at position [p]; [-1] leaves it free; [-2] matches nothing),
    in ascending row order; the tuple occupies
    [rows.(base) .. rows.(base + arity - 1)]. Exceptions raised by [f]
    propagate (callers use this to stop early). *)
val iter_matches : t -> string -> pat:int array -> (int array -> int -> unit) -> unit
