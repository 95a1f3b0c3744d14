(** The run fitting problem (Definition 8): can a partial run — a
    sequence of partial configurations with wildcards — be matched by an
    accepting run? NP in general; decided here by backtracking. *)

type cell =
  | Sym of string
  | State of string
  | Wild

type partial_config = cell array

type partial_run = partial_config list

exception Bad_partial_run of string

(** Parse rows of whitespace-separated cells; "?" is the wildcard.
    @raise Bad_partial_run on malformed rows. *)
val parse : Machine.t -> string list -> partial_run

(** Does the configuration match the partial configuration? *)
val matches : Machine.config -> partial_config -> bool

(** An accepting run matching the partial run, if any. *)
val solve : Machine.t -> partial_run -> Machine.config list option

val fits : Machine.t -> partial_run -> bool
