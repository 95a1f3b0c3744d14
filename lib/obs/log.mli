(** Leveled structured logging for long-lived processes.

    One process-global sink (stderr), two formats: [Text]
    (["omqd: [level] msg k=v ..."]) and [Json] (one object per line:
    [{"ts":..,"level":..,"msg":..,<fields>}], rendered with
    {!Obs.Json} so ["--log-format json"] stderr is machine-parseable
    end to end). Emission is mutex-serialized; logging is meant for
    the cold path — the hot request path records metrics and spans. *)

type level = Debug | Info | Warn | Error
type format = Text | Json

type field =
  | Str of string * string
  | Int of string * int
  | Float of string * float
  | Bool of string * bool

val level_of_string : string -> level option

val set_level : level -> unit
val set_format : format -> unit

val info : ?fields:field list -> string -> unit
val warn : ?fields:field list -> string -> unit
val error : ?fields:field list -> string -> unit
