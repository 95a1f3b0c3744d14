(** Text format for conjunctive queries: [q(x) <- R(x,y), A(y)];
    disjuncts of a UCQ are separated by ['|']. Lower-case arguments are
    variables, capitalised or ['...']-quoted ones constants. *)

exception Parse_error of string

val cq_of_string : string -> Cq.t
val ucq_of_string : string -> Ucq.t
