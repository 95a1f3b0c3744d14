(** Builders for rooted acyclic queries and common query shapes. *)

(** View an instance as a CQ over its elements with the given answer
    elements; [None] if the result is not an rAQ. *)
val of_instance :
  ?name:string ->
  Structure.Instance.t ->
  answer:Structure.Element.t list ->
  Cq.t option

(** q(x̄) ← R(x̄). *)
val atom_query : ?name:string -> string -> int -> Cq.t

(** q(x) ← A(x). *)
val unary : ?name:string -> string -> Cq.t

(** q(x0) ← R(x0,x1), …, R(x{_n-1},x{_n})[, A(x{_n})]. *)
val path_query : ?name:string -> string -> int -> ending:string option -> Cq.t
