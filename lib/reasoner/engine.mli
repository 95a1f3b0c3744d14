(** The certain-answer engine of one (O, D), and the only one library
    code calls. A certain answer is decided by searching countermodels
    over dom(D) plus 0, 1, …, [max_extra] fresh labelled nulls (default
    {!Problem.default_max_extra}); the engine owns one grounding per
    bound, builds each on first use into a persistent CDCL solver, and
    walks the bounds in order with {!Problem.deepen}. Per-tuple queries
    are answered by solving under assumption literals (the signed reified
    query instantiations); learned clauses and query reifications are
    kept for the engine's lifetime, so batches of tuple checks over the
    same (O, D) pay for one grounding per bound. Callers hold one engine
    per (O, D) for as long as they ask about it.

    Semantics match the {!Bounded} reference exactly, at every
    [max_extra].

    Every operation accepts a [?budget] (default {!Budget.unlimited})
    and raises {!Budget.Exhausted} on a trip. A trip never corrupts the
    engine: a bound whose grounding tripped stays unbuilt and the next
    call grounds it again, cancellation points sit where the solver's
    invariants hold, and partially-emitted reifications are unreferenced
    definitional fragments, so the engine keeps answering later queries
    exactly like a fresh one. *)

type t

(** The engine of (O, D); grounds nothing. [extra_signature]
    pre-registers further relations in every bound (query relations are
    also admitted on demand later).

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

(** The engine's lifetime counters, summed over the bounds it has
    grounded: groundings, solves and the circuit-memo traffic of its
    grounders. Each engine counts into its own record, and nowhere
    else. *)
val stats : t -> Stats.t

(** O and D have a model within the bounds. Memoized per bound (only a
    completed verdict is memoized), sound because query reifications
    are definitional extensions. *)
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

(** No bound refutes q(ā). *)
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
    engine a delta is applied to every grounded bound, and bounds not
    grounded yet ground later on the updated instance. Once a bound is
    grounded, facts over elements outside its domain and retractions
    that would vacate a domain element answer [`Needs_rebuild] (the
    grounding quantifies over the original domain, so changing it
    requires a new engine to keep verdicts identical to a fresh one);
    such a refusal leaves the engine as it was. On [`Delta] the engine's
    instance, memoized consistency verdicts and cached witnesses are all
    kept consistent, and an [engine.delta.*] span is emitted. *)

val is_dynamic : t -> bool

(** Add facts as new assumptions. New relations are admitted on demand;
    already-present facts are ignored. *)
val insert_facts :
  ?budget:Budget.t ->
  t ->
  Structure.Instance.fact list ->
  [ `Delta | `Needs_rebuild ]

(** Drop facts by forgetting their assumptions. Absent facts are
    ignored. *)
val retract_facts :
  t -> Structure.Instance.fact list -> [ `Delta | `Needs_rebuild ]
