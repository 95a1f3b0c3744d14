(** The Section 1 BioPortal analysis: strip non-ALCHIF constructors,
    compute depth, and count fragment membership. *)

(** Remove constructors outside ALCHIF (the paper's preprocessing). *)
val to_alchif : Dl.Concept.t -> Dl.Concept.t

type report = {
  name : string;
  depth : int;
  alchiq_depth1 : bool;
  alchif_depth2 : bool;
  status : Classify.Landscape.status;
}

val analyze : Dl.Tbox.t -> report

type table = {
  total : int;
  in_alchif_depth2 : int;
  in_alchiq_depth1 : int;
  with_dichotomy : int;
  deeper : int;
}

val tabulate : report list -> table
val pp_table : table Fmt.t

(** (total, in ALCHIF depth ≤ 2, in ALCHIQ depth 1) as reported by the
    paper. *)
val paper_reference : int * int * int
