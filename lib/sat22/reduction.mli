(** The Theorem 3 reduction from 2+2-SAT: given a non-materializability
    witness for an invariant-under-disjoint-unions ontology O — an
    instance D{_0} and unary pointed CQs q1@a1, q2@a2 whose disjunction
    is certain while neither disjunct is — build, from a 2+2 formula φ,
    an instance D{_φ} (one gadget copy of D{_0} per variable) and a
    query q{_φ} such that φ is unsatisfiable iff O, D{_φ} ⊨ q{_φ}.

    We realise q{_φ} as a UCQ with constants (one disjunct per clause)
    rather than one rAQ wired through fresh relations; Theorem 4 equates
    the complexities of rAQ-, CQ- and UCQ-evaluation for such O. *)

type witness = {
  base : Structure.Instance.t;
  q1 : Query.Cq.t;
  a1 : Structure.Element.t;
  q2 : Query.Cq.t;
  a2 : Structure.Element.t;
}

exception Bad_witness of string

(** D{_φ}: the disjoint union of the variable gadgets, one copy of the
    base instance per variable of φ. *)
val instance : witness -> Twotwosat.t -> Structure.Instance.t

(** q{_φ}; [None] when no clause is falsifiable (φ trivially
    satisfiable). *)
val query : witness -> Twotwosat.t -> Query.Ucq.t option

(** [(unsat, certain)] — the two sides of the reduction equivalence,
    computed independently (2+2-SAT solver vs engine certain answers). *)
val unsat_iff_certain :
  ?max_extra:int ->
  Logic.Ontology.t ->
  witness ->
  Twotwosat.t ->
  bool * bool
