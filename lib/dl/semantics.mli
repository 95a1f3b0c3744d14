(** Direct set-theoretic semantics of DL concepts and axioms over finite
    interpretations (Appendix A). Used to cross-validate the FO
    translation {!Translate}. *)

(** C{^ A}: the extension of a concept. *)
val extension : Structure.Instance.t -> Concept.t -> Structure.Element.Set.t

val is_model : Structure.Instance.t -> Tbox.t -> bool
