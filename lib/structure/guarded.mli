(** Guarded sets, maximal guarded sets and outdegree (Sections 2.2 and 8). *)

(** [is_guarded t g] holds iff [g] is a singleton subset of the domain or
    is contained in the argument set of some fact of [t]. *)
val is_guarded : Instance.t -> Element.Set.t -> bool

(** Maximal guarded sets under inclusion; these are the bags used by
    unravellings and forest models. *)
val maximal_guarded_sets : Instance.t -> Element.Set.t list
