(** DL ontologies (TBoxes): concept inclusions, role inclusions (H),
    global functionality assertions (F). *)

type axiom =
  | Sub of Concept.t * Concept.t
  | RoleSub of Concept.role * Concept.role
  | Func of Concept.role

type t = axiom list

val equivalence : Concept.t -> Concept.t -> axiom list

(** Maximal concept depth over all axioms. *)
val depth : t -> int

type features = {
  h : bool;
  i : bool;
  q : bool;
  f : bool;
  f_local : bool;
}

val features : t -> features

(** Conventional DL name, e.g. ["ALCHIQ"], with local functionality
    rendered as ["Fl"]. *)
val name : t -> string

(** No qualified number restrictions (beyond F`): inside ALCHIF(F`). *)
val within_alchif : t -> bool

(** Inside ALCHIQ — always true for this AST, since global
    functionality is Q-expressible as ⊤ ⊑ (≤ 1 R ⊤). *)
val within_alchiq : t -> bool

val pp_axiom : axiom Fmt.t
val pp : t Fmt.t
