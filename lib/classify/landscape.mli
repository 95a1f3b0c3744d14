(** The complexity landscape of Figure 1. *)

type status =
  | Dichotomy
  | Csp_hard
  | No_dichotomy
  | Unknown

type evidence = {
  status : status;
  fragment : string;
  source : string;
}

val pp_status : status Fmt.t
val pp_evidence : evidence Fmt.t

(** Classify a concrete ontology by its minimal fragment; ontologies in
    full GF report CSP-hardness of the language. *)
val of_ontology : Logic.Ontology.t -> evidence

(** DL-level classification (the grey entries of Figure 1). *)
val of_tbox : Dl.Tbox.t -> evidence

(** The Figure 1 entries: (name, computed classification, the paper's
    classification). The fig1 bench prints and compares them. *)
val figure1 : (string * evidence * status) list
