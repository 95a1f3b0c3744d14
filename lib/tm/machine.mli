(** Non-deterministic Turing machines with one one-sided tape
    (Section 7). Configurations are strings vqw with the head on the
    first symbol of w; here with a fixed tape length, since the runs of
    the run fitting problem have uniform configuration length. *)

type direction = L | R

type transition = {
  from_state : string;
  read : string;
  to_state : string;
  write : string;
  move : direction;
}

type t = {
  name : string;
  states : string list;
  alphabet : string list;
  blank : string;
  delta : transition list;
  start : string;
  accept : string;
}

type config = {
  tape : string array;
  head : int;
  state : string;
}

(** Length of the configuration string (tape length + 1). *)
val config_length : config -> int

(** The start configuration on [input], padded with blanks to a string
    of length [length]. *)
val initial : t -> string list -> length:int -> config

val is_accepting : t -> config -> bool

(** One-step successors (within the fixed tape length). *)
val successors : t -> config -> config list

val pp_config : config Fmt.t

(** Sample machine: accepts words over \{a,b\} containing an 'a'. *)
val find_a : t

(** Sample non-deterministic machine: accepts an even number of 1s via
    guessing. *)
val guess_parity : t
