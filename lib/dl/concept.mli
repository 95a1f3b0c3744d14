(** Description logic concepts for ALC and its extensions by inverse
    roles (I), qualified number restrictions (Q), and local
    functionality (F`), cf. Appendix A of the paper. *)

type role =
  | Name of string
  | Inv of string

val role_name : role -> string
val pp_role : role Fmt.t

type t =
  | Top
  | Bot
  | Atomic of string
  | Not of t
  | And of t * t
  | Or of t * t
  | Exists of role * t
  | Forall of role * t
  | AtLeast of int * role * t
  | AtMost of int * role * t

(** (≤ 1 R), i.e. AtMost (1, r, Top): the F` constructor. *)
val leq_one : role -> t

(** (= n R C) as a conjunction of AtLeast and AtMost. *)
val exactly : int -> role -> t -> t

val conj : t list -> t
val disj : t list -> t

(** Maximal nesting depth of ∃R / ∀R / number restrictions. *)
val depth : t -> int

val roles : t -> role list
val uses_inverse : t -> bool

(** Qualified number restrictions other than (≤ 1 R ⊤) and (≥ 1 R C). *)
val uses_q : t -> bool

val uses_local_functionality : t -> bool

(** Negation normal form (number restrictions absorb negation). *)
val nnf : t -> t

val pp : t Fmt.t
val to_string : t -> string
val equal : t -> t -> bool
