(** 2+2-SAT (Schaerf): clauses with two positive and two negative
    literals over variables and truth constants. NP-complete; the source
    problem of the Theorem 3 coNP-hardness reduction. *)

type literal =
  | Var of string
  | Truth of bool

type clause = {
  p1 : literal;
  p2 : literal;
  n1 : literal;
  n2 : literal;
}

type t = clause list

val clause : literal -> literal -> literal -> literal -> clause
val variables : t -> Logic.Names.SSet.t
val eval : bool Logic.Names.SMap.t -> t -> bool

(** Backtracking solver (exact). *)
val solve : t -> bool Logic.Names.SMap.t option

val satisfiable : t -> bool

(** Seeded random formulas for scaling experiments. *)
val random : rng:Random.State.t -> nvars:int -> nclauses:int -> t
