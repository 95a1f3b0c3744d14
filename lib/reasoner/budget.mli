(** Resource governance for the reasoning stack.

    Every procedure in this repository sits on a worst-case-exponential
    core — CDCL solving, [domain^arity] grounding, iterative-deepening
    model search — so blowups are the expected regime, not an edge case.
    A {!t} carries an optional wall-clock deadline, a propagation/conflict
    fuel counter and a grounding-clause cap, and is checked at cheap
    cancellation points threaded through {!Dpll}, {!Ground}, {!Engine},
    {!Chase} and the analyses built on them.

    Exhaustion is signalled internally by the {!Exhausted} exception,
    which the budgeted entry points of the public modules convert into a
    typed {!outcome} — callers that pass a budget to a [try_*] / [_within]
    function never see an exception, only
    [`Ok v | `Timeout partial | `Out_of_fuel partial].

    Cancellation points are placed so that raising there never corrupts
    shared state: an engine session interrupted by a trip answers later
    (unbudgeted) queries exactly like a fresh session. The test suite
    proves this with {!inject_after}, which trips exhaustion at exactly
    the n-th checkpoint so every cancellation path can be exercised
    deterministically. *)

(** Why a budget tripped. *)
type reason =
  | Timeout  (** the wall-clock deadline passed *)
  | Fuel  (** the fuel counter or the grounding-clause cap ran out *)

(** Raised by cancellation points when the budget is exhausted. Never
    escapes a budgeted public entry point ([try_*] / [_within]): those
    return an {!outcome} instead. *)
exception Exhausted of reason

type t

(** The shared never-trips budget: all checks are no-ops. This is the
    default everywhere a [?budget] parameter is omitted, so unbudgeted
    calls behave exactly as before the governor existed. *)
val unlimited : t

(** [create ?timeout ?fuel ?max_clauses ()] builds a budget.
    [timeout] is in seconds from now; [fuel] bounds the cumulative
    solver effort (propagations + conflicts); [max_clauses] caps the
    number of ground clauses emitted. Omitted dimensions are
    unlimited. *)
val create : ?timeout:float -> ?fuel:int -> ?max_clauses:int -> unit -> t

(** A fresh budget that never trips but counts checkpoints — run a
    workload under an observer to learn how many cancellation points it
    passes, then sweep {!inject_after} over them. *)
val observer : unit -> t

(** [inject_after n] trips [Exhausted reason] at exactly the [n]-th
    checkpoint (0-based), deterministically; [reason] defaults to
    {!Fuel}. For tests of the cancellation paths. *)
val inject_after : ?reason:reason -> int -> t

(** A cancellation point: counts one checkpoint, then trips on fault
    injection, a passed deadline, or an already-tripped budget. *)
val checkpoint : t -> unit

(** [spend t n] is a checkpoint that also debits [n] units of fuel. *)
val spend : t -> int -> unit

(** A checkpoint that also debits one grounding clause from the cap. *)
val charge_clause : t -> unit

(** Checkpoints passed so far (0 for {!unlimited}, which never counts). *)
val checkpoints : t -> int

(** The reason this budget tripped, if it has. *)
val tripped : t -> reason option

(** {2 Typed outcomes} *)

(** The result of a budgeted computation: either the full answer or a
    typed degradation carrying how far the procedure got. *)
type ('a, 'p) outcome = [ `Ok of 'a | `Timeout of 'p | `Out_of_fuel of 'p ]

(** [protect t ~partial f] runs [f], converting an {!Exhausted} trip of
    this budget into [`Timeout (partial ())] or [`Out_of_fuel (partial ())].
    Counting the trip is the caller's business: the [Omq] session layer
    counts it into the session's stats. *)
val protect : t -> partial:(unit -> 'p) -> (unit -> 'a) -> ('a, 'p) outcome

(** Map the success value of an outcome. *)
val map : ('a -> 'b) -> ('a, 'p) outcome -> ('b, 'p) outcome

(** The trip reason of a degraded outcome, if any. *)
val outcome_reason : ('a, 'p) outcome -> reason option

val pp_reason : reason Fmt.t
