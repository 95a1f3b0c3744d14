(** Capture-avoiding substitution of terms for free variables. *)

type t = Term.t Names.SMap.t

val of_list : (string * Term.t) list -> t
val singleton : string -> Term.t -> t

(** [apply s f] substitutes in [f], renaming bound variables as needed to
    avoid capture. *)
val apply : t -> Formula.t -> Formula.t
