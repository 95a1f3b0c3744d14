(** The finite rectangle tiling problem (Section 7): tile types with
    horizontal/vertical matching, an initial tile for the lower-left
    corner and a final tile for the upper-right corner; solved here by
    bounded search. *)

type t = {
  tiles : string list;
  h : (string * string) list;
  v : (string * string) list;
  init : string;
  final : string;
}

exception Bad_problem of string

type tiling = string array array

(** Does the matrix tile the problem (corners, uniqueness of the corner
    tiles, matching relations)? *)
val valid : t -> tiling -> bool

(** A tiling of the fixed (n+1) × (m+1) rectangle, if any. *)
val solve_fixed : t -> int -> int -> tiling option

(** Search all rectangle sizes up to the bounds. *)
val solve : ?max_n:int -> ?max_m:int -> t -> tiling option

val admits_tiling : ?max_n:int -> ?max_m:int -> t -> bool

(** The X/Y grid instance with tile labels encoding a tiled rectangle
    (the input encoding of Theorem 10). *)
val grid_instance : tiling -> Structure.Instance.t

(** A solvable toy problem and an unsolvable one. *)
val trivial : t

val unsolvable : t
