(** Domain elements of instances and interpretations: data constants and
    labelled nulls (Section 2 of the paper). *)

type t =
  | Const of string
  | Null of int

val compare : t -> t -> int
val equal : t -> t -> bool
val is_const : t -> bool
val pp : t Fmt.t
val to_string : t -> string

module Set : Set.S with type elt = t
module Map : Map.S with type key = t

(** Hashtables keyed by elements (used for domain-position interning in
    the grounder). *)
module Tbl : Hashtbl.S with type key = t
