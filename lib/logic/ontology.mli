(** Ontologies: finite sets of FO sentences, plus optional declarations
    that some binary relations are partial functions (the (f) feature of
    uGF2(f), Section 2.1). *)

type t = {
  sentences : Formula.t list;
  functional : string list;
}

val make : ?functional:string list -> Formula.t list -> t
val sentences : t -> Formula.t list
val functional : t -> string list

(** Sentences with functionality declarations expanded to FO axioms. *)
val all_sentences : t -> Formula.t list

val signature : t -> Signature.t
val union : t -> t -> t
