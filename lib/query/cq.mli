(** Conjunctive queries q(x̄) ← φ (Section 2): atoms over variables and
    constants, a tuple of answer variables, canonical databases, and
    evaluation through the [Structure.Eval] join planner. *)

type atom = string * Logic.Term.t list

type t = {
  name : string;
  answer : string list;
  atoms : atom list;
}

exception Ill_formed of string

(** [make ~answer atoms] checks that every answer variable occurs in an
    atom. @raise Ill_formed otherwise. *)
val make : ?name:string -> answer:string list -> atom list -> t

val arity : t -> int
val is_boolean : t -> bool
val signature : t -> Logic.Signature.t

(** The canonical constant a{_y} representing variable [y]. *)
val var_element : string -> Structure.Element.t

(** The canonical database D{_q}. *)
val canonical_db : t -> Structure.Instance.t

(** Identity fixing of the query's constants (standard names), for use
    as the [fixed] argument of homomorphism searches from D{_q}. *)
val constant_fixing : t -> Structure.Element.t Structure.Element.Map.t

(** [holds inst q ā]: ā is an answer to [q] in [inst]. *)
val holds : Structure.Instance.t -> t -> Structure.Element.t list -> bool

val holds_boolean : Structure.Instance.t -> t -> bool

(** All answers of [q] in [inst], duplicate-free and sorted (the order
    does not depend on the join plan). *)
val answers : Structure.Instance.t -> t -> Structure.Element.t list list

(** The join plan the planner would choose for [q]'s body over [inst],
    as a JSON object (see [Structure.Eval.explain_json]). *)
val explain : Structure.Instance.t -> t -> Obs.Json.t

(** Rooted acyclic queries: non-Boolean and D{_q} admits a cg-tree
    decomposition rooted at the answer variables (Section 2.2). *)
val is_raq : t -> bool

(** The CQ as an existentially quantified conjunction. *)
val to_formula : t -> Logic.Formula.t

val to_string : t -> string
val compare : t -> t -> int

(** Prefix every variable, renaming the query apart. *)
val rename_vars : string -> t -> t
