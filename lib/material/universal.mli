(** Hom-universal models (Section 3, Lemma 2): models mapping
    homomorphically into every model of O and D while preserving
    dom(D). Checked over the enumerated bounded models, so verdicts are
    relative to the bounds. *)

(** Some model maps into every enumerated bounded model. *)
val admits_hom_universal :
  ?extra:int -> ?limit:int -> Logic.Ontology.t -> Structure.Instance.t -> bool
