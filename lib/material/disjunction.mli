(** The disjunction property (Theorem 17): an ontology is materializable
    iff whenever a disjunction of pointed CQs is certain, some disjunct
    already is. A failure is a witness of non-materializability. *)

type pointed = Query.Cq.t * Structure.Element.t list

type witness = {
  instance : Structure.Instance.t;
  pointed : pointed list;
}

(** Check one candidate disjunction on the caller's {!Reasoner.Engine}
    of (O, D). A [?budget] is threaded into the engine; a trip raises
    {!Reasoner.Budget.Exhausted}. *)
val check :
  ?budget:Reasoner.Budget.t ->
  ?max_extra:int ->
  Reasoner.Engine.t ->
  pointed list ->
  [ `Holds | `Fails of witness | `Disjunction_not_certain ]

(** First violation among candidate (instance, disjunction) pairs;
    inconsistent instances are skipped. Candidates sharing one instance
    value share its engine. *)
val find_violation :
  ?budget:Reasoner.Budget.t ->
  ?max_extra:int ->
  Logic.Ontology.t ->
  (Structure.Instance.t * pointed list) list ->
  witness option

(** Pairwise unary-atom disjunctions over the elements of [d]. *)
val default_candidates :
  Logic.Ontology.t ->
  Structure.Instance.t ->
  (Structure.Instance.t * pointed list) list
