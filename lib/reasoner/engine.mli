(** The certain-answer engine, and the only one library code calls:
    ground (O, D, extra fresh nulls) once into a persistent CDCL solver,
    then answer per-tuple certainty queries by solving under assumption
    literals (the signed reified query instantiations). Learned clauses
    and query reifications are kept for the session's lifetime, so
    batches of tuple checks over the same (O, D) pay for one grounding.

    Semantics match the {!Bounded} reference exactly: a session at bound
    [extra] searches countermodels over dom(D) plus [extra] labelled
    nulls; the [_upto] forms walk the bounds with {!Problem.deepen}.

    Every operation accepts a [?budget] (default {!Budget.unlimited})
    and raises {!Budget.Exhausted} on a trip. A trip never corrupts a
    session: cancellation points sit where the solver's invariants hold
    and partially-emitted reifications are unreferenced definitional
    fragments, so the session keeps answering later queries exactly like
    a fresh engine. *)

type t

(** Ground (O, D) with exactly [extra] fresh nulls. [extra_signature]
    pre-registers further relations (query relations are also admitted
    on demand later). Each engine counts into its own fresh {!stats}
    record, and nowhere else. May raise {!Budget.Exhausted} while
    grounding when budgeted.

    With [~dynamic:true] the instance's facts are carried as persistent
    solver assumptions (their dense-rank fact variables) instead of unit
    clauses, enabling {!insert_facts} / {!retract_facts} without a
    solver rebuild. Dynamic engines mutate their instance in place and
    must not enter the keyed {!session} cache. *)
val create :
  ?extra_signature:Logic.Signature.t ->
  ?budget:Budget.t ->
  ?dynamic:bool ->
  extra:int ->
  Logic.Ontology.t ->
  Structure.Instance.t ->
  t

val instance : t -> Structure.Instance.t

(** The engine's lifetime counters: its grounding, solves, cache
    lookups and the circuit-memo traffic of its grounder. *)
val stats : t -> Stats.t

(** Memoized: solved once per session (only a completed verdict is
    memoized), sound because query reifications are definitional
    extensions. *)
val is_consistent : ?budget:Budget.t -> t -> bool

(** A model of O and D over the session domain in which each pointed CQ
    [(q, ā, wanted)] holds iff [wanted], if any: the reified
    instantiations are assumed positively or negatively. A countermodel
    to O,D ⊨ q₁(ā₁) ∨ … ∨ qₙ(āₙ) is the all-unwanted case. *)
val signed_model :
  ?budget:Budget.t ->
  t ->
  (Query.Cq.t * Structure.Element.t list * bool) list ->
  Structure.Instance.t option

(** Certainty at this session's exact domain bound. *)
val certain_ucq :
  ?budget:Budget.t -> t -> Query.Ucq.t -> Structure.Element.t list -> bool

val certain_cq :
  ?budget:Budget.t -> t -> Query.Cq.t -> Structure.Element.t list -> bool

(** O,D ⊨ q₁(ā₁) ∨ … ∨ qₙ(āₙ) at this session's bound. *)
val certain_disjunction :
  ?budget:Budget.t -> t -> (Query.Cq.t * Structure.Element.t list) list -> bool

(** {2 Delta maintenance}

    Only engines created with [~dynamic:true] maintain deltas; both
    operations answer [`Needs_rebuild] on static engines, on facts over
    elements outside the grounded domain, and on retractions that would
    vacate a domain element (the grounding quantifies over the original
    domain, so shrinking it requires a reopen to keep verdicts identical
    to a fresh session). On [`Delta] the engine's instance, memoized
    consistency verdict and cached witness are all kept consistent, and
    an [engine.delta.*] span is emitted. *)

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
  ?budget:Budget.t ->
  t ->
  Structure.Instance.fact list ->
  [ `Delta | `Needs_rebuild ]

(** {2 The session cache}

    The registry is domain-local: an engine holds single-writer solver
    and grounder state, so engines are never shared across domains —
    each worker domain keeps its own LRU, and {!set_cache_capacity} /
    {!clear_cache} act on the calling domain only.

    Sessions are cached LRU, keyed by (ontology digest, instance digest,
    extra bound); hits and misses are recorded in the stats records. A
    session enters the cache only after its grounding completed, so a
    budget trip during construction never caches a half-built engine. *)

(** Fetch or build the session for (O, D, extra). *)
val session :
  ?extra_signature:Logic.Signature.t ->
  ?budget:Budget.t ->
  extra:int ->
  Logic.Ontology.t ->
  Structure.Instance.t ->
  t

(** {!session}, paired with a snapshot of the engine's {!stats} taken
    before this lookup (all zero when the lookup grounded the engine).
    [Stats.diff (stats t) baseline] is then the work done since the
    borrower acquired it — its own grounding or cache hit, solves and
    memo traffic — rather than the lifetime counters of a cached engine
    that earlier borrowers also drove. *)
val acquire :
  ?extra_signature:Logic.Signature.t ->
  ?budget:Budget.t ->
  extra:int ->
  Logic.Ontology.t ->
  Structure.Instance.t ->
  t * Stats.t

val set_cache_capacity : int -> unit
val clear_cache : unit -> unit

(** Number of currently cached sessions. *)
val cached_sessions : unit -> int

(** {2 Iterative deepening}

    Same verdicts as the corresponding {!Bounded} entry points: every
    bound k in 0..[max_extra] (default {!Problem.default_max_extra}) runs
    on a cached {!session}, walked in order by {!Problem.deepen}. *)

val is_consistent_upto :
  ?budget:Budget.t ->
  ?max_extra:int ->
  Logic.Ontology.t ->
  Structure.Instance.t ->
  bool

val certain_ucq_upto :
  ?budget:Budget.t ->
  ?max_extra:int ->
  Logic.Ontology.t ->
  Structure.Instance.t ->
  Query.Ucq.t ->
  Structure.Element.t list ->
  bool

val certain_cq_upto :
  ?budget:Budget.t ->
  ?max_extra:int ->
  Logic.Ontology.t ->
  Structure.Instance.t ->
  Query.Cq.t ->
  Structure.Element.t list ->
  bool

val certain_disjunction_upto :
  ?budget:Budget.t ->
  ?max_extra:int ->
  Logic.Ontology.t ->
  Structure.Instance.t ->
  (Query.Cq.t * Structure.Element.t list) list ->
  bool
