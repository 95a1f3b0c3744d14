(** First-order terms: variables and (named) data constants.

    Labelled nulls never occur inside formulas; they live only in
    interpretations (see {!Structure.Element}). *)

type t =
  | Var of string
  | Const of string

val compare : t -> t -> int
val equal : t -> t -> bool

val pp : t Fmt.t
val to_string : t -> string

(** [vars ts] is the set of variable names occurring in [ts]. *)
val vars : t list -> Names.SSet.t
