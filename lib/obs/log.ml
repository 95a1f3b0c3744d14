(* Leveled structured logging for the long-lived processes (the serve
   daemon). Records go to stderr in either human text or newline-JSON;
   the JSON path renders Obs.Json values so records are parseable with
   the same tooling as the wire protocol. A single mutex serializes
   emission — logging is cold-path by design (the hot request path
   records metrics/spans, not log lines). *)

type level = Debug | Info | Warn | Error
type format = Text | Json

type field =
  | Str of string * string
  | Int of string * int
  | Float of string * float
  | Bool of string * bool

let level_to_string = function
  | Debug -> "debug"
  | Info -> "info"
  | Warn -> "warn"
  | Error -> "error"

let level_of_string = function
  | "debug" -> Some Debug
  | "info" -> Some Info
  | "warn" | "warning" -> Some Warn
  | "error" -> Some Error
  | _ -> None

let severity = function Debug -> 0 | Info -> 1 | Warn -> 2 | Error -> 3

type config = {
  mutable min_level : level;
  mutable fmt : format;
}

let cfg = { min_level = Info; fmt = Text }
let mutex = Mutex.create ()

let set_level l = cfg.min_level <- l
let set_format f = cfg.fmt <- f

let enabled l = severity l >= severity cfg.min_level

let field_json = function
  | Str (k, v) -> (k, Json.Str v)
  | Int (k, v) -> (k, Json.Num (float_of_int v))
  | Float (k, v) -> (k, Json.Num v)
  | Bool (k, v) -> (k, Json.Bool v)

let field_text = function
  | Str (k, v) ->
      if String.contains v ' ' then Printf.sprintf "%s=%S" k v
      else Printf.sprintf "%s=%s" k v
  | Int (k, v) -> Printf.sprintf "%s=%d" k v
  | Float (k, v) -> Printf.sprintf "%s=%g" k v
  | Bool (k, v) -> Printf.sprintf "%s=%b" k v

let render level msg fields =
  match cfg.fmt with
  | Json ->
      Json.render
        (Json.Obj
           (("ts", Json.Num (Clock.now ()))
           :: ("level", Json.Str (level_to_string level))
           :: ("msg", Json.Str msg)
           :: List.map field_json fields))
  | Text ->
      let parts =
        Printf.sprintf "omqd: [%s] %s" (level_to_string level) msg
        :: List.map field_text fields
      in
      String.concat " " parts

let log ?(fields = []) level msg =
  if enabled level then begin
    let line = render level msg fields in
    Mutex.lock mutex;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock mutex)
      (fun () ->
        output_string stderr line;
        output_char stderr '\n';
        flush stderr)
  end

let info ?fields msg = log ?fields Info msg
let warn ?fields msg = log ?fields Warn msg
let error ?fields msg = log ?fields Error msg
