(** Scott-style depth reduction (the polynomial conservative extension
    into uGF(1) mentioned after Example 2 of the paper).

    Deeply nested guarded subformulas ρ(z̄) occurring under a guard α are
    abstracted by fresh relations P{_ρ} with definitional sentences
    ∀ vars(α) (α → (P{_ρ}(z̄) ↔ ρ(z̄))); iterating yields an ontology all
    of whose sentences have depth ≤ 1. The result is a conservative
    extension: every model of the original expands to a model of the
    result, and reducts of models of the result satisfy the original. *)

(** Reduce sentence by sentence to a fixpoint: all sentences of the
    result have quantifier depth ≤ 1. *)
val reduce_ontology : Logic.Ontology.t -> Logic.Ontology.t
