(** The versioned, typed wire schema of the OMQ service.

    One schema, three consumers: the [omq_tool serve] daemon speaks it
    over newline-delimited JSON frames, the blocking {!Omqd.Client} (and
    the load generator built on it) decodes it, and [omq_tool]'s
    one-shot [--json] output renders through the same codec — so a CLI
    evaluation and a server response for the same work are
    byte-compatible (the server adds only the echoed request ["id"]).

    Every frame is a single-line JSON object carrying a ["v"] protocol
    version. Decoding rejects missing or unsupported versions with the
    typed {!error_kind} [Bad_version]; unknown {e fields} are ignored
    (forward compatibility), unknown {e operations} are [Bad_request].

    Budget trips are not errors: a request that exhausts its
    {!Reasoner.Budget} gets a {!response} with outcome ["timeout"] or
    ["out_of_fuel"] ({!Partial} / {!Decide_partial}), mirroring the CLI
    exit codes 124 / 125, and the daemon keeps serving. *)

(** The JSON values of the wire format: the repository's one codec,
    {!Obs.Json}, re-exported so wire code can say [Protocol.Json]. *)
module Json = Obs.Json

(** The newest protocol version this build speaks (v2 added
    [retract_facts]). Frames are rendered at [version]. *)
val version : int

(** The oldest version still accepted when decoding: v1 frames are a
    subset of v2, so old clients keep working against a new daemon and
    vice versa. *)
val min_version : int

(** {1 Requests} *)

(** Per-request resource bounds. On the server these are clamped to the
    daemon's admission caps: the effective budget of a request is the
    dimension-wise minimum of what it asked for and what the server
    allows. *)
type budget_spec = {
  timeout_s : float option;
  fuel : int option;
  max_clauses : int option;
}

val no_budget : budget_spec

type request =
  | Open_session of {
      ontology : string;  (** DL concrete syntax, one axiom per line *)
      data : string;  (** instance text, one fact per line *)
      query : string;  (** UCQ, e.g. ["q(x) <- Thumb(x)"] *)
      max_extra : int;  (** countermodel domain bound *)
    }
  | Close_session of { session : int }
  | Eval of {
      session : int;
      budget : budget_spec;
      want_stats : bool;  (** include per-request engine counters *)
    }
  | Classify of { ontology : string }
  | Insert_facts of {
      session : int;
      facts : string;  (** instance text; the session is delta-maintained
                           (or re-opened on the union when the delta path
                           cannot apply), on the same worker *)
    }
  | Retract_facts of {
      session : int;
      facts : string;  (** instance text; facts absent from the session
                           are ignored (v2) *)
    }
  | Stats
  | Dump_telemetry
      (** live telemetry snapshot: flight-recorder ring, per-worker
          rows, server-side latency quantiles *)
  | Shutdown

(** {1 Responses} *)

(** Figure 1 classification payload. *)
type classification = {
  dl_name : string;
  depth : int;
  fragment : string option;  (** [None] = outside uGF/uGC2 *)
  status : string;
  evidence_fragment : string;
  source : string;
}

(** Certain-answer payload. Invariants relied on by the codec (the wire
    format stores booleans as a ["certain"] flag and omits answers of
    inconsistent instances): if [consistent = false] then [tuples = []];
    if [boolean] then [tuples] is [[]] or [[[]]]. *)
type answers = {
  consistent : bool;
  boolean : bool;
  tuples : string list list;  (** element names, in answer order *)
}

(** Typed request-level failures ([outcome = "error"] on the wire). *)
type error_kind =
  | Bad_frame  (** not parseable as a JSON object *)
  | Bad_version  (** ["v"] missing or not a supported version *)
  | Bad_request  (** unknown op, missing/ill-typed field, or
                     unparsable ontology / data / query text *)
  | Unknown_session
  | Frame_too_large  (** longer than the daemon's [--max-frame] *)
  | Shutting_down
  | Overloaded
      (** shed at admission: the daemon's in-flight cap was exceeded and
          the request was never submitted to a worker — retryable *)
  | Worker_lost
      (** the worker domain serving the request (or holding its session)
          was quarantined before the request took effect — retryable *)
  | Internal

val error_kind_name : error_kind -> string

(** Whether a rejection of this kind is safe to retry by resending the
    same frame (same ["id"]): [true] exactly for {!Overloaded} and
    {!Worker_lost}, which the daemon only emits for requests that had no
    effect. This is the idempotency contract behind [Client]'s retry
    loop. *)
val retryable : error_kind -> bool

type response =
  | Opened of { session : int }
  | Closed of { session : int }
  | Evaled of { result : answers; stats : Json.t option }
      (** complete evaluation; [stats] is a {!Reasoner.Stats.to_json}
          object (per-request deltas on the server) *)
  | Partial of {
      reason : Reasoner.Budget.reason;
      certified : string list list;
      resume_from : string list option;
      stats : Json.t option;
    }  (** budget-tripped evaluation: what was certified before the
          trip and where to resume — outcome ["timeout"] /
          ["out_of_fuel"], the wire twin of exit codes 124 / 125 *)
  | Classified of classification
  | Decided of { verdict : [ `Ptime of int | `Conp_hard of string ] }
      (** Theorem 13 verdict: PTIME evidence from n bouquets, or a
          coNP-hardness witness (pretty-printed instance) *)
  | Decide_partial of { reason : Reasoner.Budget.reason; checked : int }
  | Inserted of { session : int; total_facts : int }
  | Retracted of { session : int; total_facts : int }
      (** facts remaining in the session after the retraction (v2) *)
  | Server_stats of {
      uptime_s : float;
      server_version : string;
          (** daemon build version (wire field ["version"]; empty when
              talking to a pre-telemetry daemon) *)
      sessions : int;
      served : int;  (** responses sent, errors included *)
      errors : int;
      inflight : int;  (** requests currently on worker domains *)
      journal_bytes : int;  (** 0 when serving without [--journal] *)
      journal_entries : int;  (** entries appended since this start *)
      counters : Json.t;
          (** daemon-side [serve.*] counters (supervision, shed, delta,
              journal) as one flat object; [Null] from old daemons *)
      reasoner : Json.t;  (** summed per-worker {!Reasoner.Stats} *)
    }
  | Telemetry of { telemetry : Json.t }
      (** [dump_telemetry] payload: flight-recorder records, per-worker
          rows and latency quantiles — schema documented in README
          "Live telemetry" *)
  | Shutdown_ack
  | Rejected of { kind : error_kind; message : string }

val reason_name : Reasoner.Budget.reason -> string

(** {1 Codec}

    Renderings are deterministic: fixed member order, ["v"] first, then
    ["id"] when given. [parse_*] validates the version before anything
    else. Decode errors carry the frame's ["id"] when one was
    recoverable, so servers can echo it on the error response.
    [render_*] append no newline; a [parse_*] frame that is not JSON is
    [Bad_frame]. *)

type 'a decoded = (int option * 'a, int option * (error_kind * string)) result

val render_request : ?id:int -> request -> string
val parse_request : string -> request decoded
val render_response : ?id:int -> response -> string
val parse_response : string -> response decoded

val equal_request : request -> request -> bool
val equal_response : response -> response -> bool
val pp_request : request Fmt.t
val pp_response : response Fmt.t
