(** Executable scaffolding for the run-fitting variant of Ladner's
    theorem (Theorem 12): the padding function H and its
    diagonalisation structure, over a caller-supplied enumeration of
    deciders standing in for the machine enumeration M{_0}, M{_1}, … *)

type enumeration = int -> string -> bool

(** H(n) = min \{ i < log log n | M{_i} agrees with the oracle on all
    strings of length ≤ log n \}, else log log n. *)
val h_function :
  enumeration:enumeration ->
  oracle:(string -> bool) ->
  ?alphabet:char list ->
  int ->
  int

(** n^H(n): the padded input length of the Theorem 12 machine. *)
val padded_input_length : h:int -> int -> int

(** Lemma 14 at sampling scale: H is eventually constant iff some
    enumerated machine decides the oracle language. *)
val eventually_constant :
  enumeration:enumeration ->
  oracle:(string -> bool) ->
  ?alphabet:char list ->
  up_to:int ->
  unit ->
  bool
