(** Bounded materializability testing (Definition 2): search for a model
    of O and D whose answers to a pool of pointed queries coincide with
    the certain answers. Bounds: extra domain elements in the
    materialization ([max_model_extra]), countermodel ceiling
    ([max_extra]), both defaulting to
    {!Reasoner.Problem.default_max_extra}, and the query pool.

    Everything runs on the cached {!Reasoner.Engine} sessions of (O, D):
    the certainty labels share one grounding per countermodel bound
    across the whole pool, and the materialization itself is one
    {!Reasoner.Engine.signed_model} query per model bound. *)

type pointed = Query.Cq.t * Structure.Element.t list

(** Atomic and one-step existential queries over sig(O), pointed at the
    elements of [d]. *)
val default_pool :
  Logic.Ontology.t -> Structure.Instance.t -> pointed list

(** Is [b] a materialization of O and [d] w.r.t. the pool? All entry
    points accept a [?budget] threaded into the underlying engine; a
    trip raises {!Reasoner.Budget.Exhausted}. *)
val is_materialization_for :
  ?budget:Reasoner.Budget.t ->
  ?max_extra:int ->
  Logic.Ontology.t ->
  Structure.Instance.t ->
  pointed list ->
  Structure.Instance.t ->
  bool

(** Search the bounded models for a materialization. *)
val find_materialization :
  ?budget:Reasoner.Budget.t ->
  ?max_model_extra:int ->
  ?max_extra:int ->
  ?pool:pointed list ->
  Logic.Ontology.t ->
  Structure.Instance.t ->
  Structure.Instance.t option

(** Inconsistent instances count as trivially materializable. *)
val materializable_on :
  ?budget:Reasoner.Budget.t ->
  ?max_model_extra:int ->
  ?max_extra:int ->
  ?pool:pointed list ->
  Logic.Ontology.t ->
  Structure.Instance.t ->
  bool
