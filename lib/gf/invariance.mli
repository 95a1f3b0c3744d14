(** Empirical testing of invariance under disjoint unions (Theorem 1).
    uGF sentences are invariant; Example 1's Boolean combinations are
    not, and this module finds the witnessing pairs. *)

type counterexample = {
  left : Structure.Instance.t;
  right : Structure.Instance.t;
  holds_left : bool;
  holds_right : bool;
  holds_union : bool;
}

(** Check the binary invariance condition on a concrete pair. *)
val check_pair :
  Logic.Formula.t ->
  Structure.Instance.t ->
  Structure.Instance.t ->
  counterexample option

(** Randomised search for a violation over small interpretations;
    [true] when none is found. *)
val appears_invariant :
  ?seed:int -> ?samples:int -> ?size:int -> ?p:float -> Logic.Formula.t -> bool
