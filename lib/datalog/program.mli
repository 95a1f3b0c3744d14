(** Datalog and Datalog≠ programs (Appendix B): rules with positive body
    atoms and optional inequalities, and a selected goal relation. A
    program is evaluated bottom-up by {!Reasoner.Chase}: its rules are
    chase rules with single-atom heads. *)

type atom = string * Logic.Term.t list

type literal =
  | Pos of atom
  | Neq of Logic.Term.t * Logic.Term.t

type rule = {
  head : atom;
  body : literal list;
}

type t = {
  rules : rule list;
  goal : string;
}

exception Unsafe_rule of string

(** Smart constructor checking range restriction.
    @raise Unsafe_rule otherwise. *)
val rule : head:atom -> body:literal list -> rule

(** @raise Unsafe_rule when a rule is not range-restricted. *)
val make : ?goal:string -> rule list -> t

val atom_vars : atom -> Logic.Names.SSet.t
val uses_inequality : t -> bool
val arity_of_goal : t -> int option

(** The rules of Π as chase rules (positive atoms as the body,
    inequalities as [~neq], the head as a one-atom head). *)
val chase_rules : t -> Reasoner.Chase.rule list

(** The goal tuples derivable from the EDB (D ⊨ Π(ā)), sorted: the goal
    relation of {!Reasoner.Chase.run} over {!chase_rules}. *)
val answers : t -> Structure.Instance.t -> Structure.Element.t list list

val pp_rule : rule Fmt.t
val pp : t Fmt.t
val size : t -> int
