(** Unravellings of instances into (bounded prefixes of) cg-tree
    decomposable instances (Section 4).

    The uGF-unravelling follows conditions (a) G{_i} ≠ G{_i+1},
    (b) G{_i} ∩ G{_i+1} ≠ ∅, (c) G{_i-1} ≠ G{_i+1} over sequences of
    maximal guarded sets; the uGC2-unravelling strengthens (c) to
    (c') G{_i} ∩ G{_i-1} ≠ G{_i} ∩ G{_i+1}, which preserves successor
    counts. The paper's unravellings are infinite; here they are cut at a
    caller-supplied number of expansion steps. *)

type variant = UGF | UGC2

type t

(** [unravel ~variant ~depth d] builds the bounded unravelling of [d].
    [depth] is the maximal number of expansion steps (sequence length
    minus one). *)
val unravel : ?variant:variant -> depth:int -> Instance.t -> t

(** The unravelled instance D{^u}. *)
val instance : t -> Instance.t

(** The map e ↦ e{^ ↑} from copies back to original elements; it is a
    homomorphism from D{^u} onto D. *)
val up_map : t -> Element.t Element.Map.t

(** [root_copy t g] is the original→copy bijection of the root bag for
    the maximal guarded set [g] (Definition 3 evaluates queries at the
    copy of a tuple in bag(G)). *)
val root_copy : t -> Element.Set.t -> Element.t Element.Map.t option
