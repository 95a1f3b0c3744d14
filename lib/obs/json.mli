(** JSON values with a total parser — the toolchain ships no JSON
    library, so this is the repository's one representation. Emitters
    (the wire protocol, trace and metric exporters, logs, the telemetry
    dump) build {!t} values and render them once, at the edge;
    {!Omq.Protocol.Json} re-exports this module. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list  (** member order is preserved *)

(** Compact one-line rendering (no spaces); integral numbers render
    without a fraction, others with ["%.17g"] (round-trip exact). NaN
    and infinities, which JSON cannot express, render as [null]. *)
val render : t -> string

(** Parse one JSON document; trailing garbage, unterminated input and
    nesting deeper than 512 are errors ([Error "offset N: msg"]). *)
val parse : string -> (t, string) result

(** Member of an object, if present ([None] on non-objects too). *)
val member : string -> t -> t option

val equal : t -> t -> bool
