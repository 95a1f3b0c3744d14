(** First-order formulas over a relational signature, with equality and
    counting quantifiers [CountGeq (n, x, phi)] standing for
    {m \exists^{\geq n} x\, \varphi}.

    This is the common AST for the guarded fragment (GF), its uGF/uGC2
    fragments, and the first-order translations of description logic
    ontologies. Guardedness is not baked into the type; it is recognised
    structurally by {!Gf.Syntax}. *)

type t =
  | True
  | False
  | Atom of string * Term.t list
  | Eq of Term.t * Term.t
  | Not of t
  | And of t * t
  | Or of t * t
  | Implies of t * t
  | Forall of string list * t
  | Exists of string list * t
  | CountGeq of int * string * t

(** {1 Smart constructors}

    The binary constructors simplify trivial cases ([True], [False]). *)

val tru : t
val fls : t
val atom : string -> Term.t list -> t
val neg : t -> t
val conj2 : t -> t -> t
val disj2 : t -> t -> t

(** [conj fs] is the conjunction of [fs] ([True] when empty). *)
val conj : t list -> t

(** [disj fs] is the disjunction of [fs] ([False] when empty). *)
val disj : t list -> t

val implies : t -> t -> t
val forall : string list -> t -> t
val exists : string list -> t -> t
val count_geq : int -> string -> t -> t

(** {1 Traversals} *)

val free_vars : t -> Names.SSet.t
val all_vars : t -> Names.SSet.t

(** [is_sentence f] holds iff [f] has no free variables. *)
val is_sentence : t -> bool

(** [relations f] maps every relation symbol occurring in [f] to its
    arity. *)
val relations : t -> int Names.SMap.t

(** All subformulas of [f], including [f] itself (with duplicates). *)
val subformulas : t -> t list

(** [nnf f] pushes negations to the atoms and eliminates [Implies].
    Counting quantifiers are kept under single negations. *)
val nnf : t -> t

val to_string : t -> string
val equal : t -> t -> bool
