(** First-order terms: variables and (named) data constants.

    Labelled nulls never occur inside formulas; they live only in
    interpretations (see {!Structure.Element}). *)

type t =
  | Var of string
  | Const of string

val pp : t Fmt.t

(** [vars ts] is the set of variable names occurring in [ts]. *)
val vars : t list -> Names.SSet.t
