(** Fragment descriptors in the naming scheme of Figure 1:
    uGF{^ −}{_2}(depth, =, f) and uGC{^ −}{_2}(depth, =). *)

type t = {
  counting : bool;
  two_var : bool;
  outer_eq : bool;
  depth : int;
  equality : bool;
  functions : bool;
}

val make :
  ?counting:bool ->
  ?two_var:bool ->
  ?outer_eq:bool ->
  ?equality:bool ->
  ?functions:bool ->
  int ->
  t

(** Render the paper's name, e.g. ["uGF-2(2,f)"]. *)
val name : t -> string

(** [subsumes big small]: every [small]-ontology is a [big]-ontology. *)
val subsumes : t -> t -> bool

(** The minimal descriptor containing the ontology, or [None] when a
    sentence lies outside uGF/uGC2. *)
val of_ontology : Logic.Ontology.t -> t option
