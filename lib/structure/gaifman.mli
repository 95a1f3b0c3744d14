(** The Gaifman graph of an instance and distance computations
    (Definition 6). *)

type t

val of_instance : Instance.t -> t
val neighbours : t -> Element.t -> Element.Set.t

(** Shortest-path distance, [None] if unreachable. *)
val distance : t -> Element.t -> Element.t -> int option

val connected_components : t -> Element.Set.t list
val is_connected : t -> bool
