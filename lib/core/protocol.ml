(* The versioned wire schema shared by the serve daemon, the blocking
   client and omq_tool's one-shot --json output. See protocol.mli for
   the format; the invariant that matters here is determinism: rendering
   is a fixed member order, so equal values produce equal bytes and a
   CLI evaluation is byte-compatible with a server response. *)

(* v2 added retract_facts. Decoding is lenient: every version back to
   [min_version] is accepted, since v1 frames are a subset of v2 — a v1
   client talking to a v2 daemon (or the reverse) stays compatible. *)
let version = 2
let min_version = 1

module Json = Obs.Json

(* ------------------------------------------------------------------ *)
(* Schema types                                                         *)
(* ------------------------------------------------------------------ *)

type budget_spec = {
  timeout_s : float option;
  fuel : int option;
  max_clauses : int option;
}

let no_budget = { timeout_s = None; fuel = None; max_clauses = None }

type request =
  | Open_session of {
      ontology : string;
      data : string;
      query : string;
      max_extra : int;
    }
  | Close_session of { session : int }
  | Eval of { session : int; budget : budget_spec; want_stats : bool }
  | Classify of { ontology : string }
  | Insert_facts of { session : int; facts : string }
  | Retract_facts of { session : int; facts : string }
  | Stats
  | Dump_telemetry
  | Shutdown

type classification = {
  dl_name : string;
  depth : int;
  fragment : string option;
  status : string;
  evidence_fragment : string;
  source : string;
}

type answers = {
  consistent : bool;
  boolean : bool;
  tuples : string list list;
}

type error_kind =
  | Bad_frame
  | Bad_version
  | Bad_request
  | Unknown_session
  | Frame_too_large
  | Shutting_down
  | Overloaded
  | Worker_lost
  | Internal

let error_kind_name = function
  | Bad_frame -> "bad_frame"
  | Bad_version -> "bad_version"
  | Bad_request -> "bad_request"
  | Unknown_session -> "unknown_session"
  | Frame_too_large -> "frame_too_large"
  | Shutting_down -> "shutting_down"
  | Overloaded -> "overloaded"
  | Worker_lost -> "worker_lost"
  | Internal -> "internal"

let error_kind_of_name = function
  | "bad_frame" -> Some Bad_frame
  | "bad_version" -> Some Bad_version
  | "bad_request" -> Some Bad_request
  | "unknown_session" -> Some Unknown_session
  | "frame_too_large" -> Some Frame_too_large
  | "shutting_down" -> Some Shutting_down
  | "overloaded" -> Some Overloaded
  | "worker_lost" -> Some Worker_lost
  | "internal" -> Some Internal
  | _ -> None

(* A retryable rejection is the daemon's promise that the request had no
   effect: it was shed before submission ([Overloaded]) or its worker was
   quarantined before any session-table effect was applied
   ([Worker_lost]). Resending the same frame — same id — is therefore
   safe, which is the idempotency contract {!Client.call}'s retry loop
   relies on. *)
let retryable = function
  | Overloaded | Worker_lost -> true
  | Bad_frame | Bad_version | Bad_request | Unknown_session | Frame_too_large
  | Shutting_down | Internal ->
      false

type response =
  | Opened of { session : int }
  | Closed of { session : int }
  | Evaled of { result : answers; stats : Json.t option }
  | Partial of {
      reason : Reasoner.Budget.reason;
      certified : string list list;
      resume_from : string list option;
      stats : Json.t option;
    }
  | Classified of classification
  | Decided of { verdict : [ `Ptime of int | `Conp_hard of string ] }
  | Decide_partial of { reason : Reasoner.Budget.reason; checked : int }
  | Inserted of { session : int; total_facts : int }
  | Retracted of { session : int; total_facts : int }
  | Server_stats of {
      uptime_s : float;
      server_version : string;
      sessions : int;
      served : int;
      errors : int;
      inflight : int;
      journal_bytes : int;
      journal_entries : int;
      counters : Json.t;
      reasoner : Json.t;
    }
  | Telemetry of { telemetry : Json.t }
  | Shutdown_ack
  | Rejected of { kind : error_kind; message : string }

let reason_name = function
  | Reasoner.Budget.Timeout -> "timeout"
  | Reasoner.Budget.Fuel -> "out_of_fuel"

let reason_of_name = function
  | "timeout" -> Some Reasoner.Budget.Timeout
  | "out_of_fuel" -> Some Reasoner.Budget.Fuel
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Encoding                                                             *)
(* ------------------------------------------------------------------ *)

let jint i = Json.Num (float_of_int i)
let jstr s = Json.Str s
let jtuples ts = Json.Arr (List.map (fun t -> Json.Arr (List.map jstr t)) ts)

let envelope ?id fields =
  Json.Obj
    ((("v", jint version)
     :: (match id with Some i -> [ ("id", jint i) ] | None -> []))
    @ fields)

let budget_fields { timeout_s; fuel; max_clauses } =
  (match timeout_s with Some t -> [ ("timeout", Json.Num t) ] | None -> [])
  @ (match fuel with Some f -> [ ("fuel", jint f) ] | None -> [])
  @ match max_clauses with Some c -> [ ("max_clauses", jint c) ] | None -> []

let request_to_json ?id req =
  envelope ?id
    (match req with
    | Open_session { ontology; data; query; max_extra } ->
        [
          ("op", jstr "open_session");
          ("ontology", jstr ontology);
          ("data", jstr data);
          ("query", jstr query);
          ("max_extra", jint max_extra);
        ]
    | Close_session { session } ->
        [ ("op", jstr "close_session"); ("session", jint session) ]
    | Eval { session; budget; want_stats } ->
        [ ("op", jstr "eval"); ("session", jint session) ]
        @ budget_fields budget
        @ if want_stats then [ ("stats", Json.Bool true) ] else []
    | Classify { ontology } ->
        [ ("op", jstr "classify"); ("ontology", jstr ontology) ]
    | Insert_facts { session; facts } ->
        [
          ("op", jstr "insert_facts");
          ("session", jint session);
          ("facts", jstr facts);
        ]
    | Retract_facts { session; facts } ->
        [
          ("op", jstr "retract_facts");
          ("session", jint session);
          ("facts", jstr facts);
        ]
    | Stats -> [ ("op", jstr "stats") ]
    | Dump_telemetry -> [ ("op", jstr "dump_telemetry") ]
    | Shutdown -> [ ("op", jstr "shutdown") ])

let stats_field = function
  | Some s -> [ ("stats", (s : Json.t)) ]
  | None -> []

let response_to_json ?id resp =
  let typed t outcome fields =
    envelope ?id (("type", jstr t) :: ("outcome", jstr outcome) :: fields)
  in
  match resp with
  | Opened { session } -> typed "open_session" "ok" [ ("session", jint session) ]
  | Closed { session } -> typed "close_session" "ok" [ ("session", jint session) ]
  | Evaled { result = { consistent; boolean; tuples }; stats } ->
      typed "eval" "ok"
        ([ ("consistent", Json.Bool consistent); ("boolean", Json.Bool boolean) ]
        @ (if not consistent then []
           else if boolean then [ ("certain", Json.Bool (tuples <> [])) ]
           else
             [
               ("count", jint (List.length tuples)); ("answers", jtuples tuples);
             ])
        @ stats_field stats)
  | Partial { reason; certified; resume_from; stats } ->
      typed "eval" (reason_name reason)
        ([
           ("certified", jtuples certified);
           ( "resume_from",
             match resume_from with
             | Some t -> Json.Arr (List.map jstr t)
             | None -> Json.Null );
         ]
        @ stats_field stats)
  | Classified { dl_name; depth; fragment; status; evidence_fragment; source }
    ->
      typed "classify" "ok"
        [
          ("dl_name", jstr dl_name);
          ("depth", jint depth);
          ( "fragment",
            match fragment with Some f -> jstr f | None -> Json.Null );
          ("status", jstr status);
          ("evidence_fragment", jstr evidence_fragment);
          ("source", jstr source);
        ]
  | Decided { verdict = `Ptime n } ->
      typed "decide" "ok"
        [ ("verdict", jstr "ptime"); ("bouquets_checked", jint n) ]
  | Decided { verdict = `Conp_hard w } ->
      typed "decide" "ok" [ ("verdict", jstr "conp_hard"); ("witness", jstr w) ]
  | Decide_partial { reason; checked } ->
      typed "decide" (reason_name reason) [ ("bouquets_checked", jint checked) ]
  | Inserted { session; total_facts } ->
      typed "insert_facts" "ok"
        [ ("session", jint session); ("total_facts", jint total_facts) ]
  | Retracted { session; total_facts } ->
      typed "retract_facts" "ok"
        [ ("session", jint session); ("total_facts", jint total_facts) ]
  | Server_stats
      {
        uptime_s;
        server_version;
        sessions;
        served;
        errors;
        inflight;
        journal_bytes;
        journal_entries;
        counters;
        reasoner;
      } ->
      typed "stats" "ok"
        [
          ("uptime_s", Json.Num uptime_s);
          ("version", jstr server_version);
          ("sessions", jint sessions);
          ("served", jint served);
          ("errors", jint errors);
          ("inflight", jint inflight);
          ("journal_bytes", jint journal_bytes);
          ("journal_entries", jint journal_entries);
          ("counters", counters);
          ("reasoner", reasoner);
        ]
  | Telemetry { telemetry } -> typed "telemetry" "ok" [ ("telemetry", telemetry) ]
  | Shutdown_ack -> typed "shutdown" "ok" []
  | Rejected { kind; message } ->
      typed "error" "error"
        [ ("error", jstr (error_kind_name kind)); ("message", jstr message) ]

(* ------------------------------------------------------------------ *)
(* Decoding                                                             *)
(* ------------------------------------------------------------------ *)

type 'a decoded = (int option * 'a, int option * (error_kind * string)) result

let as_exact_int = function
  | Json.Num f when Float.is_integer f && Float.abs f < 1e15 ->
      Some (int_of_float f)
  | _ -> None

(* Field accessors over an association list; errors are typed
   [Bad_request] with the offending field named. *)

let field ms name = List.assoc_opt name ms

let req_int ms name =
  match field ms name with
  | Some v -> (
      match as_exact_int v with
      | Some i -> Ok i
      | None -> Error (Bad_request, name ^ " must be an integer"))
  | None -> Error (Bad_request, "missing field " ^ name)

let req_str ms name =
  match field ms name with
  | Some (Json.Str s) -> Ok s
  | Some _ -> Error (Bad_request, name ^ " must be a string")
  | None -> Error (Bad_request, "missing field " ^ name)

let opt_or ms name default conv =
  match field ms name with
  | None | Some Json.Null -> Ok default
  | Some v -> conv v

let opt_int ms name =
  opt_or ms name None (fun v ->
      match as_exact_int v with
      | Some i -> Ok (Some i)
      | None -> Error (Bad_request, name ^ " must be an integer"))

let opt_int_default ms name default =
  opt_or ms name default (fun v ->
      match as_exact_int v with
      | Some i -> Ok i
      | None -> Error (Bad_request, name ^ " must be an integer"))

let opt_num ms name =
  opt_or ms name None (function
    | Json.Num f -> Ok (Some f)
    | _ -> Error (Bad_request, name ^ " must be a number"))

let opt_bool ms name default =
  opt_or ms name default (function
    | Json.Bool b -> Ok b
    | _ -> Error (Bad_request, name ^ " must be a boolean"))

let opt_str ms name default =
  opt_or ms name default (function
    | Json.Str s -> Ok s
    | _ -> Error (Bad_request, name ^ " must be a string"))

let as_tuple name = function
  | Json.Arr items ->
      let rec go acc = function
        | [] -> Ok (List.rev acc)
        | Json.Str s :: rest -> go (s :: acc) rest
        | _ -> Error (Bad_request, name ^ " must hold strings")
      in
      go [] items
  | _ -> Error (Bad_request, name ^ " must be an array")

let as_tuples name = function
  | Json.Arr items ->
      let rec go acc = function
        | [] -> Ok (List.rev acc)
        | item :: rest -> (
            match as_tuple name item with
            | Ok t -> go (t :: acc) rest
            | Error e -> Error e)
      in
      go [] items
  | _ -> Error (Bad_request, name ^ " must be an array")

let frame_id ms =
  match field ms "id" with Some v -> as_exact_int v | None -> None

let check_version ms =
  match field ms "v" with
  | Some v -> (
      match as_exact_int v with
      | Some n when n >= min_version && n <= version -> Ok ()
      | Some n ->
          Error
            ( Bad_version,
              Printf.sprintf
                "unsupported protocol version %d (this build speaks %d-%d)"
                n min_version version )
      | None -> Error (Bad_version, "v must be an integer"))
  | None -> Error (Bad_version, "missing protocol version field v")

let with_frame json decode =
  match json with
  | Json.Obj ms -> (
      let id = frame_id ms in
      match check_version ms with
      | Error e -> Error (id, e)
      | Ok () -> (
          match decode ms with
          | Ok v -> Ok (id, v)
          | Error e -> Error (id, e)))
  | _ -> Error (None, (Bad_frame, "frame is not a JSON object"))

let ( let* ) = Result.bind

let request_of_json json =
  with_frame json @@ fun ms ->
  let* op = req_str ms "op" in
  match op with
  | "open_session" ->
      let* ontology = req_str ms "ontology" in
      let* data = opt_str ms "data" "" in
      let* query = req_str ms "query" in
      let* max_extra =
        match opt_int ms "max_extra" with
        | Ok None -> Ok 2
        | Ok (Some n) when n >= 0 -> Ok n
        | Ok (Some _) -> Error (Bad_request, "max_extra must be >= 0")
        | Error e -> Error e
      in
      Ok (Open_session { ontology; data; query; max_extra })
  | "close_session" ->
      let* session = req_int ms "session" in
      Ok (Close_session { session })
  | "eval" ->
      let* session = req_int ms "session" in
      let* timeout_s = opt_num ms "timeout" in
      let* fuel = opt_int ms "fuel" in
      let* max_clauses = opt_int ms "max_clauses" in
      let* want_stats = opt_bool ms "stats" false in
      Ok
        (Eval
           { session; budget = { timeout_s; fuel; max_clauses }; want_stats })
  | "classify" ->
      let* ontology = req_str ms "ontology" in
      Ok (Classify { ontology })
  | "insert_facts" ->
      let* session = req_int ms "session" in
      let* facts = req_str ms "facts" in
      Ok (Insert_facts { session; facts })
  | "retract_facts" ->
      let* session = req_int ms "session" in
      let* facts = req_str ms "facts" in
      Ok (Retract_facts { session; facts })
  | "stats" -> Ok Stats
  | "dump_telemetry" -> Ok Dump_telemetry
  | "shutdown" -> Ok Shutdown
  | op -> Error (Bad_request, "unknown op " ^ op)

let response_of_json json =
  with_frame json @@ fun ms ->
  let* ty = req_str ms "type" in
  let* outcome = req_str ms "outcome" in
  let stats = field ms "stats" in
  match (ty, outcome) with
  | "open_session", "ok" ->
      let* session = req_int ms "session" in
      Ok (Opened { session })
  | "close_session", "ok" ->
      let* session = req_int ms "session" in
      Ok (Closed { session })
  | "eval", "ok" ->
      let* consistent =
        match field ms "consistent" with
        | Some (Json.Bool b) -> Ok b
        | _ -> Error (Bad_request, "missing field consistent")
      in
      let* boolean =
        match field ms "boolean" with
        | Some (Json.Bool b) -> Ok b
        | _ -> Error (Bad_request, "missing field boolean")
      in
      let* tuples =
        if not consistent then Ok []
        else if boolean then
          let* certain = opt_bool ms "certain" false in
          Ok (if certain then [ [] ] else [])
        else
          match field ms "answers" with
          | Some v -> as_tuples "answers" v
          | None -> Error (Bad_request, "missing field answers")
      in
      Ok (Evaled { result = { consistent; boolean; tuples }; stats })
  | "eval", outcome -> (
      match reason_of_name outcome with
      | None -> Error (Bad_request, "unknown outcome " ^ outcome)
      | Some reason ->
          let* certified =
            match field ms "certified" with
            | Some v -> as_tuples "certified" v
            | None -> Error (Bad_request, "missing field certified")
          in
          let* resume_from =
            match field ms "resume_from" with
            | None | Some Json.Null -> Ok None
            | Some v ->
                let* t = as_tuple "resume_from" v in
                Ok (Some t)
          in
          Ok (Partial { reason; certified; resume_from; stats }))
  | "classify", "ok" ->
      let* dl_name = req_str ms "dl_name" in
      let* depth = req_int ms "depth" in
      let* fragment =
        match field ms "fragment" with
        | None | Some Json.Null -> Ok None
        | Some (Json.Str s) -> Ok (Some s)
        | Some _ -> Error (Bad_request, "fragment must be a string or null")
      in
      let* status = req_str ms "status" in
      let* evidence_fragment = req_str ms "evidence_fragment" in
      let* source = req_str ms "source" in
      Ok
        (Classified
           { dl_name; depth; fragment; status; evidence_fragment; source })
  | "decide", "ok" -> (
      let* verdict = req_str ms "verdict" in
      match verdict with
      | "ptime" ->
          let* n = req_int ms "bouquets_checked" in
          Ok (Decided { verdict = `Ptime n })
      | "conp_hard" ->
          let* w = req_str ms "witness" in
          Ok (Decided { verdict = `Conp_hard w })
      | v -> Error (Bad_request, "unknown verdict " ^ v))
  | "decide", outcome -> (
      match reason_of_name outcome with
      | None -> Error (Bad_request, "unknown outcome " ^ outcome)
      | Some reason ->
          let* checked = req_int ms "bouquets_checked" in
          Ok (Decide_partial { reason; checked }))
  | "insert_facts", "ok" ->
      let* session = req_int ms "session" in
      let* total_facts = req_int ms "total_facts" in
      Ok (Inserted { session; total_facts })
  | "retract_facts", "ok" ->
      let* session = req_int ms "session" in
      let* total_facts = req_int ms "total_facts" in
      Ok (Retracted { session; total_facts })
  | "stats", "ok" ->
      let* uptime_s =
        match opt_num ms "uptime_s" with
        | Ok (Some f) -> Ok f
        | Ok None -> Error (Bad_request, "missing field uptime_s")
        | Error e -> Error e
      in
      let* sessions = req_int ms "sessions" in
      let* served = req_int ms "served" in
      let* errors = req_int ms "errors" in
      (* PR 8 additions decode leniently so a new client still reads a
         pre-telemetry daemon's stats frame. *)
      let* server_version = opt_str ms "version" "" in
      let* inflight = opt_int_default ms "inflight" 0 in
      let* journal_bytes = opt_int_default ms "journal_bytes" 0 in
      let* journal_entries = opt_int_default ms "journal_entries" 0 in
      let counters = Option.value ~default:Json.Null (field ms "counters") in
      let reasoner = Option.value ~default:Json.Null (field ms "reasoner") in
      Ok
        (Server_stats
           {
             uptime_s;
             server_version;
             sessions;
             served;
             errors;
             inflight;
             journal_bytes;
             journal_entries;
             counters;
             reasoner;
           })
  | "telemetry", "ok" ->
      let telemetry = Option.value ~default:Json.Null (field ms "telemetry") in
      Ok (Telemetry { telemetry })
  | "shutdown", "ok" -> Ok Shutdown_ack
  | "error", _ ->
      let* kind_name = req_str ms "error" in
      let* message = opt_str ms "message" "" in
      let kind =
        Option.value ~default:Internal (error_kind_of_name kind_name)
      in
      Ok (Rejected { kind; message })
  | ty, _ -> Error (Bad_request, "unknown response type " ^ ty)

(* ------------------------------------------------------------------ *)
(* String forms                                                         *)
(* ------------------------------------------------------------------ *)

let render_request ?id req = Json.render (request_to_json ?id req)
let render_response ?id resp = Json.render (response_to_json ?id resp)

let parse_frame of_json line =
  match Json.parse line with
  | Ok json -> of_json json
  | Error msg -> Error (None, (Bad_frame, msg))

let parse_request line = parse_frame request_of_json line
let parse_response line = parse_frame response_of_json line

(* ------------------------------------------------------------------ *)
(* Equality and printing                                                *)
(* ------------------------------------------------------------------ *)

let equal_budget a b =
  Option.equal Float.equal a.timeout_s b.timeout_s
  && Option.equal Int.equal a.fuel b.fuel
  && Option.equal Int.equal a.max_clauses b.max_clauses

let equal_request a b =
  match (a, b) with
  | Open_session a, Open_session b ->
      String.equal a.ontology b.ontology
      && String.equal a.data b.data
      && String.equal a.query b.query
      && Int.equal a.max_extra b.max_extra
  | Close_session a, Close_session b -> Int.equal a.session b.session
  | Eval a, Eval b ->
      Int.equal a.session b.session
      && equal_budget a.budget b.budget
      && Bool.equal a.want_stats b.want_stats
  | Classify a, Classify b -> String.equal a.ontology b.ontology
  | Insert_facts a, Insert_facts b ->
      Int.equal a.session b.session && String.equal a.facts b.facts
  | Retract_facts a, Retract_facts b ->
      Int.equal a.session b.session && String.equal a.facts b.facts
  | Stats, Stats | Dump_telemetry, Dump_telemetry | Shutdown, Shutdown -> true
  | _ -> false

let equal_tuples = List.equal (List.equal String.equal)

let equal_response a b =
  match (a, b) with
  | Opened a, Opened b -> Int.equal a.session b.session
  | Closed a, Closed b -> Int.equal a.session b.session
  | Evaled a, Evaled b ->
      Bool.equal a.result.consistent b.result.consistent
      && Bool.equal a.result.boolean b.result.boolean
      && equal_tuples a.result.tuples b.result.tuples
      && Option.equal Json.equal a.stats b.stats
  | Partial a, Partial b ->
      a.reason = b.reason
      && equal_tuples a.certified b.certified
      && Option.equal (List.equal String.equal) a.resume_from b.resume_from
      && Option.equal Json.equal a.stats b.stats
  | Classified a, Classified b ->
      String.equal a.dl_name b.dl_name
      && Int.equal a.depth b.depth
      && Option.equal String.equal a.fragment b.fragment
      && String.equal a.status b.status
      && String.equal a.evidence_fragment b.evidence_fragment
      && String.equal a.source b.source
  | Decided { verdict = `Ptime n }, Decided { verdict = `Ptime m } ->
      Int.equal n m
  | Decided { verdict = `Conp_hard v }, Decided { verdict = `Conp_hard w } ->
      String.equal v w
  | Decide_partial a, Decide_partial b ->
      a.reason = b.reason && Int.equal a.checked b.checked
  | Inserted a, Inserted b ->
      Int.equal a.session b.session && Int.equal a.total_facts b.total_facts
  | Retracted a, Retracted b ->
      Int.equal a.session b.session && Int.equal a.total_facts b.total_facts
  | Server_stats a, Server_stats b ->
      Float.equal a.uptime_s b.uptime_s
      && String.equal a.server_version b.server_version
      && Int.equal a.sessions b.sessions
      && Int.equal a.served b.served
      && Int.equal a.errors b.errors
      && Int.equal a.inflight b.inflight
      && Int.equal a.journal_bytes b.journal_bytes
      && Int.equal a.journal_entries b.journal_entries
      && Json.equal a.counters b.counters
      && Json.equal a.reasoner b.reasoner
  | Telemetry a, Telemetry b -> Json.equal a.telemetry b.telemetry
  | Shutdown_ack, Shutdown_ack -> true
  | Rejected a, Rejected b ->
      a.kind = b.kind && String.equal a.message b.message
  | _ -> false

let pp_request ppf r = Fmt.string ppf (render_request r)
let pp_response ppf r = Fmt.string ppf (render_response r)
