(** Unions of conjunctive queries: non-empty lists of CQs of equal
    arity, evaluated disjunctively. *)

type t = {
  name : string;
  disjuncts : Cq.t list;
}

exception Ill_formed of string

(** @raise Ill_formed on an empty list or mismatched arities. *)
val make : ?name:string -> Cq.t list -> t

val of_cq : Cq.t -> t
val disjuncts : t -> Cq.t list
val arity : t -> int
val is_boolean : t -> bool
val signature : t -> Logic.Signature.t

val answers : Structure.Instance.t -> t -> Structure.Element.t list list
