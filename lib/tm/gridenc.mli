(** The Theorem 10 construction: ALCIF` depth-2 ontologies that verify
    grid cells (O{_cell}) and properly tiled grids (O{_P}) by
    propagating (= 1 R) markers, plus the combinatorial conditions
    cell(d) / grid(d) that they characterise. *)

type letter = LX | LY | LXi | LYi

type word = letter list

(** (= 1 R): "exactly one R-successor". *)
val eq_one : string -> Dl.Concept.t

(** The cell-marking ontology (Appendix H). *)
val ontology_cell : Dl.Tbox.t

(** D ⊨ cell(d): the X/Y square at [d] closes. *)
val cell_holds : Structure.Instance.t -> Structure.Element.t -> bool

(** O{_P} for a tiling problem (Figure 4). *)
val ontology_p : Tiling.t -> Dl.Tbox.t

(** O{_P} ∪ {(=1 Acc) ⊑ B1 ⊔ B2}: non-materializable iff P admits a
    tiling (Theorem 10). *)
val ontology_undecidability : Tiling.t -> Dl.Tbox.t

(** D ⊨ grid(d): [d] roots a closed, properly tiled grid in D. *)
val grid_holds : Tiling.t -> Structure.Instance.t -> Structure.Element.t -> bool

(** The Lemma 4 ontology O{_M}: O{_P} plus a grid-borne simulation of
    the machine's runs; reaching the accepting state triggers the
    B1 ⊔ B2 disjunction. *)
val ontology_m : Machine.t -> Dl.Tbox.t
