(** The daemon's flight recorder: a bounded ring of completed request
    records owned by the select loop (single writer, lock-free).

    Always on by default; switching it off leaves one load + branch on
    the hot path. Dumped as JSON on [SIGUSR1] and by the
    [dump_telemetry] wire op. *)

type record = {
  ts_s : float;  (** completion time ({!Obs.Clock}) *)
  op : string;  (** wire op, or ["recovery"] for journal replay *)
  outcome : string;  (** ok / timeout / out_of_fuel / error kind *)
  worker : int;  (** worker domain index; [-1] = handled on the loop *)
  session : int;  (** [-1] when the request has no session *)
  dur_s : float;  (** submit-to-completion wall time *)
}

type t

val default_capacity : int
val create : ?capacity:int -> unit -> t
val enabled : t -> bool
val set_enabled : t -> bool -> unit

(** Push one record, evicting the oldest once full. No-op when
    disabled. *)
val record : t -> record -> unit

(** Retained records, oldest first (at most [capacity t]). *)
val records : t -> record list

(** Records ever pushed. *)
val total : t -> int

(** Records lost to eviction ([total - capacity], floored at 0). *)
val dropped : t -> int

(** One JSON object: [extra] members first, then ["flight_total"],
    ["flight_dropped"] and the ["flight"] array, one object per record
    with ["ts"], ["op"], ["outcome"], ["worker"], ["session"] and
    ["dur_ms"]. *)
val to_json : ?extra:(string * Obs.Json.t) list -> t -> Obs.Json.t
