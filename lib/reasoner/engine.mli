(** The certain-answer engine of one (O, D), and the only one library
    code calls. A certain answer is decided by searching countermodels
    over dom(D) plus 0, 1, …, [max_extra] fresh labelled nulls (default
    {!Problem.default_max_extra}). The engine grounds (O, D) once, over
    dom(D) plus m nulls where m is the largest [max_extra] it has been
    asked for, into a persistent CDCL solver; a call with a larger
    ceiling grounds once more, at that ceiling. Each null has an
    activity variable and the ontology ranges over active elements
    (see {!Ground.create}'s [~nulls]), so bound k is an assumption pair
    on the activity variables and a ceiling c a single one: one solve
    searches every bound up to c, and one refutation covers them all.
    Per-tuple queries are answered by solving under assumption literals
    (the signed reified query instantiations); learned clauses and
    query reifications are kept for the grounding's lifetime, so
    batches of tuple checks over the same (O, D) pay for one grounding.
    Callers hold one engine per (O, D) for as long as they ask about
    it.

    Answers carry their proofs: for every tuple it found certain, the
    engine remembers the ceiling and the facts of the solver's
    failed-assumption core ({!Dpll.core}), and answers that tuple again
    at that ceiling or below without a solver call while those facts are
    present. Non-answers are settled by the countermodels found so far
    that contain the current D; a new one is kept only when none of
    them refutes the tuple at hand. So on a dynamic engine an update
    sends back to the solver only the answers whose proofs cite a
    retracted fact and the non-answers no such countermodel refutes: an
    insert keeps every proof and suspends the countermodels lacking a
    new fact, and a retract of those facts revives them (DESIGN.md §5,
    "Witness reuse"). A static engine's proofs cite no fact, so
    re-asking a certain tuple never costs a solve.

    Semantics match the {!Bounded} reference exactly, at every
    [max_extra]. Over an empty D, bounds 0 and 1 coincide (the
    one-element domains {e0} and {n_1}), and models are reported over
    n_1.

    Every operation accepts a [?budget] (default {!Budget.unlimited})
    and raises {!Budget.Exhausted} on a trip. A trip never corrupts the
    engine: a grounding that tripped is not kept (the engine keeps the
    one it had, and the next call grounds again), cancellation points
    sit where the solver's invariants hold, and partially-emitted
    reifications are unreferenced definitional fragments, so the engine
    keeps answering later queries exactly like a fresh one. *)

type t

(** The engine of (O, D); grounds nothing. The grounding holds the
    relations of O and [extra_signature]; other relations (a query's)
    are admitted on demand, with D's facts of them. D's facts of
    relations never admitted meet no clause: they are part of every
    model the engine reports.

    With [~dynamic:true] the instance's facts are carried as persistent
    solver assumptions (their dense-rank fact variables) instead of unit
    clauses, enabling {!insert_facts} / {!retract_facts} without a
    solver rebuild. *)
val create :
  ?extra_signature:Logic.Signature.t ->
  ?dynamic:bool ->
  Logic.Ontology.t ->
  Structure.Instance.t ->
  t

val ontology : t -> Logic.Ontology.t
val instance : t -> Structure.Instance.t

(** The engine's lifetime counters, summed over its groundings:
    groundings, solves and solver effort. Each engine counts into its
    own record, and nowhere else. *)
val stats : t -> Stats.t

(** O and D have a model within the bounds: a countermodel found
    earlier within them, or one solve. An inconsistency is remembered
    until a retract. *)
val is_consistent : ?budget:Budget.t -> ?max_extra:int -> t -> bool

(** A model of O and D at the first bound that has one in which each
    pointed CQ [(q, ā, wanted)] holds iff [wanted], if any: the reified
    instantiations are assumed positively or negatively. A countermodel
    to O,D ⊨ q₁(ā₁) ∨ … ∨ qₙ(āₙ) is the all-unwanted case. *)
val signed_model :
  ?budget:Budget.t ->
  ?max_extra:int ->
  t ->
  (Query.Cq.t * Structure.Element.t list * bool) list ->
  Structure.Instance.t option

(** No bound refutes q(ā). A countermodel within the ceiling refutes
    it (a live kept one, or a fresh solve across every bound); a
    remembered proof at that ceiling or above whose facts are all still
    in D confirms it, or an unsatisfiable solve whose proof is then
    remembered. *)
val certain_ucq :
  ?budget:Budget.t ->
  ?max_extra:int ->
  t ->
  Query.Ucq.t ->
  Structure.Element.t list ->
  bool

val certain_cq :
  ?budget:Budget.t ->
  ?max_extra:int ->
  t ->
  Query.Cq.t ->
  Structure.Element.t list ->
  bool

(** O,D ⊨ q₁(ā₁) ∨ … ∨ qₙ(āₙ) at every bound. *)
val certain_disjunction :
  ?budget:Budget.t ->
  ?max_extra:int ->
  t ->
  (Query.Cq.t * Structure.Element.t list) list ->
  bool

(** {2 Delta maintenance}

    Only engines created with [~dynamic:true] maintain deltas; both
    operations answer [`Needs_rebuild] on static engines. On a dynamic
    engine a delta is applied to the grounding, and a later grounding
    (at a larger ceiling) grounds the updated instance. Once grounded,
    facts over elements outside dom(D) and retractions that would vacate
    a domain element answer [`Needs_rebuild] (the grounding quantifies
    over the original domain, so changing it requires a new engine to
    keep verdicts identical to a fresh one); such a refusal leaves the
    engine as it was. On [`Delta] the engine's instance, remembered
    inconsistency and kept countermodels are all kept consistent, and an
    [engine.delta.*] span is emitted, carrying the countermodels the
    delta [suspended], [revived] and [dropped]. *)

val is_dynamic : t -> bool

(** Add facts as new assumptions (facts of relations not yet admitted
    only join the instance); already-present facts are ignored. *)
val insert_facts :
  t ->
  Structure.Instance.fact list ->
  [ `Delta | `Needs_rebuild ]

(** Drop facts by forgetting their assumptions. Absent facts are
    ignored. *)
val retract_facts :
  t -> Structure.Instance.fact list -> [ `Delta | `Needs_rebuild ]

(** The kept countermodels, newest first: each model with its active-null
    count and whether it is live (contains the current D, so it settles
    candidates). *)
val countermodels : t -> (Structure.Instance.t * int * bool) list
