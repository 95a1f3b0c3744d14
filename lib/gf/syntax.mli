(** Syntactic recognition of the guarded fragment and its uGF / uGC2
    sub-languages (Section 2.1).

    A uGF sentence has the shape ∀ȳ(α(ȳ) → φ(ȳ)) with α an atom or an
    equality guard and φ in openGF — the fragment of GF whose subformulas
    are all open and in which equality is never used as a guard. *)

exception Not_guarded of string

type analysis = {
  depth : int;
  eq_nonguard : bool;
  counting : bool;
  vars : Logic.Names.SSet.t;
  max_arity : int;
}

type sentence_analysis = {
  outer_eq : bool;
  body : analysis;
}

(** Analyse a uGF/uGC2 sentence ∀ȳ(α → φ); accepts the shorthand ∀y φ
    for an equality-guarded sentence.
    @raise Not_guarded outside the fragment. *)
val analyze_sentence : Logic.Formula.t -> sentence_analysis

val is_ugf_sentence : Logic.Formula.t -> bool

(** Depth of a uGF sentence = quantifier depth of its body (the outermost
    universal quantifier is not counted). *)
val sentence_depth : Logic.Formula.t -> int

(** Membership in full GF (sentences as subformulas and equality guards
    allowed). *)
val is_gf : Logic.Formula.t -> bool
