(** The Theorem 8 encodings: for a template A (admitting precoloring) an
    ontology O such that evaluating the OMQ (O, q ← N(x)) is
    polynomially equivalent to coCSP(A). Three variants realise the
    color markers φ{^ ≠}{_a} / φ{^ =}{_a}:

    - [Eq]: uGF2(1,=), via ∃y (Ra(x,y) ∧ ¬ x=y);
    - [Func]: uGF2(1,f), via a function F with ∀x F(x,x);
    - [Alcfl]: ALCF` depth 2, via ∃{^ ≥2}y Ra(x,y). *)

type variant =
  | Eq
  | Func
  | Alcfl

(** The encoding ontology; apply {!Precolor.closure} to the template
    first if pinning is wanted. *)
val ontology : ?variant:variant -> Template.t -> Logic.Ontology.t

(** D ↦ D′: turn precoloring pins P{_a}(d) into marker edges. *)
val lift_instance : Template.t -> Structure.Instance.t -> Structure.Instance.t

(** D ↦ D•: the consistency-to-CSP direction. *)
val consistency_reduct :
  Template.t -> Structure.Instance.t -> Structure.Instance.t
