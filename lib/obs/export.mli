(** Exporters for a filled {!Trace} collector. *)

type format =
  | Chrome  (** Chrome trace-event JSON: chrome://tracing, Perfetto *)
  | Jsonl  (** one span (then one event) per line *)

(** The file contents in the given format. *)
val render : format -> Trace.t -> string

(** Render and write to [path]. *)
val to_file : format -> Trace.t -> string -> unit

(** {2 Per-phase profile} *)

type profile_row = {
  pname : string;  (** span name *)
  count : int;
  total_s : float;  (** summed span durations *)
  self_s : float;  (** total minus time spent in direct children *)
}

(** Aggregate spans by name, sorted by descending self time. *)
val profile : Trace.t -> profile_row list

val pp_profile : profile_row list Fmt.t
