(** The one-shot reference for bounded model finding and certain answers
    over arbitrary FO(=, counting) ontologies.

    Countermodels are searched over domains dom(D) ∪ {k fresh nulls},
    with a fresh grounding and a fresh solver per tuple and per bound.
    Refutations are exact (any countermodel refutes); a confirmation
    means that no countermodel exists over dom(D) plus k nulls, which
    converges, as k grows ({!Problem.deepen}), to the finite-model
    certain answers. GF has the finite model property (Grädel 1999);
    GC2 does not, so there the limit is a finite-model verdict.
    Experiments record the bound they use.

    Library code answers on {!Engine}; this module is the independent
    oracle that tests, examples and the bench harness check it against.
    It takes no budget. *)

(** Consistency of D w.r.t. O, trying 0..[max_extra] extra elements. *)
val is_consistent :
  ?max_extra:int -> Logic.Ontology.t -> Structure.Instance.t -> bool

(** A countermodel to O,D ⊨ q(ā) with exactly [extra] fresh nulls. *)
val countermodel :
  ?extra:int ->
  Logic.Ontology.t ->
  Structure.Instance.t ->
  Query.Ucq.t ->
  Structure.Element.t list ->
  Structure.Instance.t option

(** O,D ⊨ q(ā): no countermodel with 0..[max_extra] extra elements. *)
val certain_ucq :
  ?max_extra:int ->
  Logic.Ontology.t ->
  Structure.Instance.t ->
  Query.Ucq.t ->
  Structure.Element.t list ->
  bool

val certain_cq :
  ?max_extra:int ->
  Logic.Ontology.t ->
  Structure.Instance.t ->
  Query.Cq.t ->
  Structure.Element.t list ->
  bool

(** Certain truth of an FO(=, counting) formula under an assignment
    [env]: no bounded model of O and D refutes it. *)
val certain_formula :
  ?max_extra:int ->
  ?env:Structure.Element.t Logic.Names.SMap.t ->
  Logic.Ontology.t ->
  Structure.Instance.t ->
  Logic.Formula.t ->
  bool

(** O,D ⊨ q1(ā1) ∨ … ∨ qn(ān) for pointed CQs (disjunction property,
    Theorem 17). *)
val certain_disjunction :
  ?max_extra:int ->
  Logic.Ontology.t ->
  Structure.Instance.t ->
  (Query.Cq.t * Structure.Element.t list) list ->
  bool
