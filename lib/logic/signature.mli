(** Relational signatures: finite maps from relation symbols to arities. *)

type t = int Names.SMap.t

(** Raised when a symbol is used with two different arities. *)
exception Arity_mismatch of string * int * int

val empty : t
val add : string -> int -> t -> t
val of_list : (string * int) list -> t
val arity : string -> t -> int option
val mem : string -> t -> bool

(** [union a b] merges two signatures.
    @raise Arity_mismatch on conflicting arities. *)
val union : t -> t -> t

(** The signature of the relation symbols occurring in a formula. *)
val of_formula : Formula.t -> t

val of_formulas : Formula.t list -> t

(** [subset a b]: every symbol of [a] occurs in [b] with the same arity. *)
val subset : t -> t -> bool
val to_list : t -> (string * int) list
val max_arity : t -> int
