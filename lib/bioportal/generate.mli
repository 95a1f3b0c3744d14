(** A seeded synthetic stand-in for the BioPortal repository
    (Section 1): the constructor/depth distribution is calibrated to the
    proportions the paper reports (385/411 depth 1 in ALCHIQ, 405/411
    depth ≤ 2 in ALCHIF). See DESIGN.md for the substitution rationale. *)

(** The corpus (default: 411 ontologies, seed 2017). *)
val corpus : ?seed:int -> ?n:int -> unit -> Dl.Tbox.t list
