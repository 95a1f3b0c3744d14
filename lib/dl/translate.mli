(** The standard translation of DL ontologies into uGF2 / uGC2
    (Appendix A, Lemma 7): a concept [C] becomes an openGF/openGC2
    formula C*(x) with two variables overall, and C ⊑ D becomes
    ∀x (x = x → (C*(x) → D*(x))), so an ALCHIQ ontology of depth [n]
    becomes a uGC{^ −}{_2} ontology of depth [n]. *)

(** C*(cur), alternating between the variables "x" and "y". *)
val concept_formula : Concept.t -> string -> Logic.Formula.t

(** Translate a whole TBox; [Func (Name r)] becomes a functional
    declaration, [Func (Inv r)] an explicit inverse-functionality
    axiom. *)
val tbox : Tbox.t -> Logic.Ontology.t
