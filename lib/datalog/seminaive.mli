(** Bottom-up Datalog≠ evaluation. Rule bodies are matched by the
    [Structure.Eval] join planner ([Structure.Eval.fold_body]); a delta
    pin becomes pre-bound variables plus constant checks. [evaluate] is
    semi-naive: after the first round, rules only fire through matches
    touching the previous round's delta. *)

(** All derivable facts (EDB ∪ IDB fixpoint). *)
val evaluate : Program.t -> Structure.Instance.t -> Structure.Instance.t

(** Tuples of the goal relation, sorted. *)
val answers :
  Program.t -> Structure.Instance.t -> Structure.Element.t list list

(** D ⊨ Π(ā). *)
val holds :
  Program.t -> Structure.Instance.t -> Structure.Element.t list -> bool

(** Naive fixpoint: every rule re-fires on the whole instance until
    nothing changes. The reference the equivalence suites compare
    [evaluate] against. *)
val evaluate_naive : Program.t -> Structure.Instance.t -> Structure.Instance.t
