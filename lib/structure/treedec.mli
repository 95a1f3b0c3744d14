(** Guarded tree decompositions through hypergraph acyclicity
    (Section 2.2). An instance has a guarded tree decomposition iff the
    hypergraph of its fact argument sets is alpha-acyclic (GYO). *)

val is_guarded_tree_decomposable : Instance.t -> bool

(** Guarded tree decomposable with a connected Gaifman graph. *)
val is_cg_tree_decomposable : Instance.t -> bool

(** Existence of a connected guarded tree decomposition whose root bag is
    exactly [root] (used to recognise rooted acyclic queries). *)
val is_rooted_decomposable : Instance.t -> root:Element.Set.t -> bool
