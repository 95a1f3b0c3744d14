(* The daemon's decisions (see core.mli). Everything here transforms the
   serving state; the shell in daemon.ml owns every file descriptor, the
   worker service, the journal file, the signals and the clock, and
   turns this module's actions into syscalls.

   Sticky routing: a session's worker is chosen round-robin at
   [open_session] and stored in its record; every later request for it
   is submitted to that worker, whose FIFO mailbox serialises the
   session's jobs on the one domain that holds its engines. The
   session's [Omq.session] is therefore touched only by its worker's
   jobs; the core keeps the acknowledged history ([log]) beside it.

   Crash-only discipline: every state-changing acknowledgement (open /
   insert / retract / close) is appended to the journal, and the
   [Journaled] outcome arrives, before the response is written
   (journal-before-ack). A quarantined worker's in-flight requests fail
   with the retryable [Worker_lost] and its sessions are rebuilt from
   their logs on the fresh domain. *)

module P = Omq.Protocol
module S = Reasoner.Stats

let version = "0.9.0"
let default_max_frame = 8 * 1024 * 1024
let default_max_outbuf = 64 * 1024 * 1024
let default_journal_compact = 1024 * 1024
let default_shutdown_grace = 10.0

(* ------------------------------------------------------------------ *)
(* Types *)

type sess = {
  omq : Omq.t;
  worker : int;  (** the one domain allowed to touch [session] *)
  mutable session : Omq.session;  (** written only by [worker]'s jobs *)
  mutable log : Journal.entry list;
      (** acknowledged history, newest first; its reverse replays the
          session *)
}

(* Session-table change a completed job asks for, for the session its
   request addresses. [New] registers the session an open created;
   [Refresh] acknowledges an update the job already applied to the live
   record, and only if that session is still live. *)
type reg = New of sess | Refresh of Journal.entry

type reply = {
  resp : P.response;
  register : reg option;
  work : S.t option;
      (** the Stats delta of the session the job touched, summed into
          [reasoner] *)
  delta : [ `Insert | `Retract | `Reopen ] option;
      (** the path an update took, counted as serve.delta.* *)
}

let reply ?register ?work ?delta resp = { resp; register; work; delta }

let outcome r =
  match r.resp with
  | P.Partial { reason; _ } | P.Decide_partial { reason; _ } ->
      P.reason_name reason
  | P.Rejected _ -> "error"
  | _ -> "ok"

type completion = {
  token : int;
  worker : int;
  reply : reply;
  gc : (float * float) option;
}

type event =
  | Connected of { conn : int; http : bool }
  | Input of int * string
  | Hangup of int
  | Flushed of int * int
  | Completed of completion
  | Journaled of (int, string) result
  | Tick of { now : float; busy : float option array }
  | Signal of [ `Term | `Usr1 ]

type action =
  | Submit of { token : int; worker : int; op : string; job : unit -> reply }
  | Append of Journal.entry
  | Compact of Journal.entry list
  | Write of int * string
  | Close of int
  | Replace of int
  | Dump of Obs.Json.t
  | Stop

(* A submitted job. A completion whose token is no longer here was
   failed by a quarantine or a rebuild and is dropped, never answered
   twice. Replay jobs answer nobody: they rebuild session [sid]. *)
type pend = {
  conn : int;
  rid : int option;
  worker : int;
  replay : bool;
  op : string;
  sid : int;  (** session the request addresses; -1 = none *)
  submitted_s : float;
}

type conn = {
  http : bool;
  inbuf : Buffer.t;
  mutable discarding : bool;  (** inside an oversized line: drop to \n *)
  mutable unsent : int;  (** bytes written but not yet flushed *)
  mutable answered : bool;  (** http: the one response is written *)
}

(* The journal write the shell has yet to answer with [Journaled]. *)
type awaiting =
  | Ack of {
      conn : int;
      rid : int option;
      resp : P.response;
      apply : unit -> unit;
      failed : unit -> unit;
    }
  | Compaction of (sess * Journal.entry) list

type t = {
  jobs : int;
  caps : P.budget_spec;
  max_frame : int;
  journal_compact : int;
  supervise : float option;
  max_inflight : int option;
  max_outbuf : int;
  shutdown_grace : float;
  metrics : Obs.Metrics.t;
  flight : Telemetry.t;
  sessions : (int, sess) Hashtbl.t;
  conns : (int, conn) Hashtbl.t;
  pending : (int, pend) Hashtbl.t;  (** token -> submitted job *)
  replaying : (int, unit) Hashtbl.t;
      (** sessions being rebuilt; requests for them get [Worker_lost] *)
  reasoner : S.t;  (** the work of every completed job, summed *)
  worker_gc : Obs.Metrics.t array;
      (** per worker: its last sampled GC gauges, empty until sampled *)
  served_by_worker : int array;
  start_s : float;
  mutable now : float;
  mutable busy : float option array;
  mutable journaled : bool;
  mutable journal_bytes : int;
  mutable awaiting : awaiting option;
  mutable blocked : int list;
      (** connections whose next frame waits for [awaiting] to clear *)
  mutable out : action list;  (** this step's actions, newest first *)
  mutable next_sid : int;
  mutable next_token : int;
  mutable rr : int;
  mutable served : int;
  mutable errors : int;
  mutable shutting : bool;
  mutable deadline : float;
  mutable stopped : bool;
}

let create ?(jobs = 1) ?(caps = P.no_budget) ?(max_frame = default_max_frame)
    ?(journal_compact = default_journal_compact) ?supervise ?max_inflight
    ?(max_outbuf = default_max_outbuf)
    ?(shutdown_grace = default_shutdown_grace) ?(telemetry = true)
    ?(flight_capacity = Telemetry.default_capacity)
    ?(metrics = Obs.Metrics.create ()) ~now () =
  let jobs = max 1 jobs in
  let flight = Telemetry.create ~capacity:flight_capacity () in
  Telemetry.set_enabled flight telemetry;
  {
    jobs;
    caps;
    max_frame;
    journal_compact;
    supervise;
    max_inflight;
    max_outbuf;
    shutdown_grace;
    metrics;
    flight;
    sessions = Hashtbl.create 31;
    conns = Hashtbl.create 31;
    pending = Hashtbl.create 31;
    replaying = Hashtbl.create 7;
    reasoner = S.create ();
    worker_gc = Array.init jobs (fun _ -> Obs.Metrics.create ());
    served_by_worker = Array.make jobs 0;
    start_s = now;
    now;
    busy = Array.make jobs None;
    journaled = false;
    journal_bytes = 0;
    awaiting = None;
    blocked = [];
    out = [];
    next_sid = 0;
    next_token = 0;
    rr = 0;
    served = 0;
    errors = 0;
    shutting = false;
    deadline = 0.0;
    stopped = false;
  }

let in_flight st = Hashtbl.length st.pending
let replaying st = Hashtbl.length st.replaying
let shutting st = st.shutting
let emit st a = st.out <- a :: st.out

let take st =
  let acts = List.rev st.out in
  st.out <- [];
  acts

(* ------------------------------------------------------------------ *)
(* Output *)

let close st cid =
  Hashtbl.remove st.conns cid;
  emit st (Close cid)

let write st cid (c : conn) data =
  c.unsent <- c.unsent + String.length data;
  emit st (Write (cid, data))

(* Responses count as served only when a live connection receives them. *)
let respond st cid rid resp =
  match Hashtbl.find_opt st.conns cid with
  | None -> ()
  | Some c ->
      st.served <- st.served + 1;
      (match resp with P.Rejected _ -> st.errors <- st.errors + 1 | _ -> ());
      write st cid c (P.render_response ?id:rid resp ^ "\n")

let rejected kind message = P.Rejected { kind; message }

let unknown_session sid =
  rejected P.Unknown_session (Printf.sprintf "no session %d" sid)

(* ------------------------------------------------------------------ *)
(* Worker jobs. They run on the session's worker; raising is reserved
   for bugs and becomes a typed Internal response in [submit]. Payload
   parse errors carry omq_tool's file-loader message shape, with the
   field name as the file. *)

let load_tbox_text text =
  try Ok (Dl.Parser.parse_tbox text) with
  | Dl.Parser.Parse_error { line; message } ->
      Error (Printf.sprintf "ontology:%d: %s" line message)
  | Dl.Lexer.Lex_error { line; col; message } ->
      Error (Printf.sprintf "ontology:%d:%d: %s" line col message)

let load_instance_text what text =
  try Ok (Structure.Parse.instance_of_string text) with
  | Structure.Parse.Parse_error { line; message } ->
      Error (Printf.sprintf "%s:%d: %s" what line message)

let load_query_text text =
  try Ok (Query.Parse.ucq_of_string text)
  with Query.Parse.Parse_error m -> Error (Printf.sprintf "query: %s" m)

let bad_request msg = reply (rejected P.Bad_request msg)
let element_name e = Fmt.str "%a" Structure.Element.pp e

let omin cmp a b =
  match (a, b) with
  | None, x | x, None -> x
  | Some a, Some b -> Some (if cmp a b <= 0 then a else b)

let clamp (caps : P.budget_spec) (want : P.budget_spec) : P.budget_spec =
  {
    timeout_s = omin Float.compare want.timeout_s caps.timeout_s;
    fuel = omin Int.compare want.fuel caps.fuel;
    max_clauses = omin Int.compare want.max_clauses caps.max_clauses;
  }

let budget_of_spec (spec : P.budget_spec) =
  match spec with
  | { timeout_s = None; fuel = None; max_clauses = None } ->
      Reasoner.Budget.unlimited
  | { timeout_s; fuel; max_clauses } ->
      Reasoner.Budget.create ?timeout:timeout_s ?fuel ?max_clauses ()

let open_job ~sid ~worker ~ontology ~data ~query ~max_extra () =
  let ( let* ) r f = match r with Ok v -> f v | Error msg -> bad_request msg in
  let* tbox = load_tbox_text ontology in
  let* inst = load_instance_text "data" data in
  let* q = load_query_text query in
  let omq = Omq.of_tbox tbox q in
  (* Daemon sessions are updatable: their engines carry fact assumptions
     so insert_facts/retract_facts delta-maintain instead of reopening. *)
  let session = Omq.open_session ~max_extra ~updatable:true omq inst in
  let log = [ Journal.Open { sid; ontology; data; query; max_extra } ] in
  reply
    ~register:(New { omq; worker; session; log })
    (P.Opened { session = sid })

(* The work an eval charges to its session is the session's Stats delta
   across the job: the eval's [want_stats] object and [reasoner] share
   it. *)
let eval_job caps (se : sess) (want : P.budget_spec) want_stats () =
  let budget = budget_of_spec (clamp caps want) in
  let session = se.session in
  let before = Omq.Session.stats session in
  let work = lazy (S.diff (Omq.Session.stats session) before) in
  let boolean = Query.Ucq.is_boolean se.omq.Omq.query in
  let names = List.map (List.map element_name) in
  let stats () = if want_stats then Some (S.json (Lazy.force work)) else None in
  let partial reason (p : Omq.Session.partial_answers) =
    let resume_from =
      match p.Omq.Session.undecided () with
      | Seq.Nil -> None
      | Seq.Cons (t, _) -> Some (List.map element_name t)
    in
    P.Partial
      { reason; certified = names p.Omq.Session.certified; resume_from; stats = stats () }
  in
  let complete consistent answers =
    P.Evaled
      { result = { P.consistent; boolean; tuples = names answers }; stats = stats () }
  in
  let no_partial = { Omq.Session.certified = []; undecided = Seq.empty } in
  let resp =
    match Omq.Session.is_consistent_within budget session with
    | `Timeout () -> partial Reasoner.Budget.Timeout no_partial
    | `Out_of_fuel () -> partial Reasoner.Budget.Fuel no_partial
    | `Ok false -> complete false []
    | `Ok true -> (
        match Omq.Session.certain_answers_within budget session with
        | `Ok answers -> complete true answers
        | `Timeout p -> partial Reasoner.Budget.Timeout p
        | `Out_of_fuel p -> partial Reasoner.Budget.Fuel p)
  in
  reply ~work:(Lazy.force work) resp

let classify_job ontology () =
  match load_tbox_text ontology with
  | Error msg -> bad_request msg
  | Ok tbox ->
      let o = Dl.Translate.tbox tbox in
      let ev = Classify.Landscape.of_tbox tbox in
      reply
        (P.Classified
           {
             dl_name = Dl.Tbox.name tbox;
             depth = Dl.Tbox.depth tbox;
             fragment = Option.map Gf.Fragment.name (Gf.Fragment.of_ontology o);
             status = Fmt.str "%a" Classify.Landscape.pp_status ev.status;
             evidence_fragment = ev.Classify.Landscape.fragment;
             source = ev.Classify.Landscape.source;
           })

(* Insert/retract delta-maintain the session's engines where possible
   (Omq.Session falls back to a reopen when not) and update the live
   record in place, so pipelined updates build on each other. The path
   taken rides the reply; a delta-maintained session reports the work
   the update charged to it, a reopened one starts counting from zero. *)
let update_job (se : sess) ~insert sid facts () =
  match load_instance_text "facts" facts with
  | Error msg -> bad_request msg
  | Ok inst ->
      let before = Omq.Session.stats se.session in
      let apply =
        if insert then Omq.Session.insert_facts else Omq.Session.retract_facts
      in
      let session, strategy = apply se.session (Structure.Instance.facts inst) in
      se.session <- session;
      let work, delta =
        match strategy with
        | `Delta ->
            ( Some (S.diff (Omq.Session.stats session) before),
              if insert then `Insert else `Retract )
        | `Reopen -> (None, `Reopen)
      in
      let total_facts =
        Structure.Instance.cardinal (Omq.Session.instance session)
      in
      let resp, entry =
        if insert then
          (P.Inserted { session = sid; total_facts }, Journal.Insert { sid; facts })
        else
          (P.Retracted { session = sid; total_facts }, Journal.Retract { sid; facts })
      in
      reply ?work ~delta ~register:(Refresh entry) resp

(* ------------------------------------------------------------------ *)
(* Submission, journal-before-ack, replay *)

let submit st ~conn ~rid ~worker ?(replay = false) ?(sid = -1) ~op job =
  let token = st.next_token in
  st.next_token <- token + 1;
  Hashtbl.replace st.pending token
    { conn; rid; worker; replay; op; sid; submitted_s = st.now };
  let job () =
    try job ()
    with e -> reply (rejected P.Internal (Printexc.to_string e))
  in
  emit st (Submit { token; worker; op; job })

let next_worker st =
  let w = st.rr mod st.jobs in
  st.rr <- st.rr + 1;
  w

(* Acknowledge a state change: with a journal, park the ack until the
   shell reports the entry durable; without one, apply and answer now. *)
let journal st ~conn ~rid ~resp ?(failed = ignore) ~apply entry =
  if st.journaled then begin
    st.awaiting <- Some (Ack { conn; rid; resp; apply; failed });
    emit st (Append entry)
  end
  else begin
    apply ();
    respond st conn rid resp
  end

(* A session's acknowledged history folded to one Open on its net data:
   what compaction writes and what a replay reopens. *)
let folded_entry sid (se : sess) =
  match Journal.live_sessions (List.rev se.log) with
  | [ (_, (ontology, data, query, max_extra), _) ] ->
      Journal.Open { sid; ontology; data; query; max_extra }
  | _ -> Journal.Open { sid; ontology = ""; data = ""; query = ""; max_extra = 0 }

let by_sid st =
  Hashtbl.fold (fun sid se acc -> (sid, se) :: acc) st.sessions []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

let live st = List.map (fun (sid, se) -> folded_entry sid se) (by_sid st)

let submit_replay st ~sid ~worker (ontology, data, query, max_extra) =
  Hashtbl.replace st.replaying sid ();
  submit st ~conn:(-1) ~rid:None ~worker ~replay:true ~sid ~op:"replay_session"
    (open_job ~sid ~worker ~ontology ~data ~query ~max_extra)

let replay st sid (se : sess) =
  Obs.Metrics.incr st.metrics "serve.supervision.sessions_replayed";
  match folded_entry sid se with
  | Journal.Open { ontology; data; query; max_extra; _ } ->
      submit_replay st ~sid ~worker:se.worker (ontology, data, query, max_extra)
  | _ -> ()

(* Fail every pending job [victim] selects: requests get the retryable
   [Worker_lost]; a lost replay leaves its session to be resubmitted by
   the caller, or lost if its record is gone. *)
let fail_pending st victim =
  Hashtbl.fold (fun tok p acc -> if victim p then (tok, p) :: acc else acc)
    st.pending []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
  |> List.iter (fun (tok, p) ->
         Hashtbl.remove st.pending tok;
         if p.replay then begin
           Hashtbl.remove st.replaying p.sid;
           if not (Hashtbl.mem st.sessions p.sid) then
             Obs.Metrics.incr st.metrics "serve.supervision.sessions_lost"
         end
         else begin
           Obs.Metrics.incr st.metrics "serve.supervision.requests_failed";
           respond st p.conn p.rid
             (rejected P.Worker_lost "worker quarantined; retry")
         end)

(* An update was applied on the worker but could not be journalled: the
   live record is ahead of the acknowledged history, so everything
   queued behind it fails and the session is rebuilt from its log. *)
let rebuild st sid se =
  fail_pending st (fun p -> p.sid = sid && not p.replay);
  replay st sid se

(* Abandon worker [w]'s domain, fail everything routed to it, and
   rebuild its sessions on the fresh domain at the same index (sticky
   pins stay valid). *)
let quarantine st w =
  emit st (Replace w);
  Obs.Metrics.incr st.metrics "serve.supervision.quarantines";
  fail_pending st (fun p -> p.worker = w);
  List.iter
    (fun (sid, (se : sess)) ->
      if se.worker = w && not (Hashtbl.mem st.replaying sid) then replay st sid se)
    (by_sid st)

let maybe_compact st =
  if st.journal_compact > 0 && st.journal_bytes > st.journal_compact then begin
    let folded = List.map (fun (sid, se) -> (se, folded_entry sid se)) (by_sid st) in
    st.awaiting <- Some (Compaction folded);
    emit st (Compact (List.map snd folded))
  end

(* ------------------------------------------------------------------ *)
(* Stats, telemetry and the /metrics exposition, over core state; a
   worker's GC gauges enter only as completion-shipped samples. *)

let jint i = Obs.Json.Num (float_of_int i)
let jnum_opt = function Some v -> Obs.Json.Num v | None -> Obs.Json.Null

let serve_counters st =
  Obs.Json.Obj
    (List.filter_map
       (fun name ->
         if String.starts_with ~prefix:"serve." name then
           Option.map (fun v -> (name, jint v))
             (Obs.Metrics.counter_value st.metrics name)
         else None)
       (Obs.Metrics.names st.metrics))

let journal_entries st =
  Option.value ~default:0
    (Obs.Metrics.counter_value st.metrics "serve.journal.appends")

let server_stats st =
  P.Server_stats
    {
      uptime_s = st.now -. st.start_s;
      server_version = version;
      sessions = Hashtbl.length st.sessions;
      served = st.served;
      errors = st.errors;
      inflight = in_flight st;
      journal_bytes = st.journal_bytes;
      journal_entries = journal_entries st;
      counters = serve_counters st;
      reasoner = S.json st.reasoner;
    }

let telemetry_json st =
  let worker_row w =
    let gauge = Obs.Metrics.gauge_value st.worker_gc.(w) in
    Obs.Json.Obj
      [
        ("domain", jint w);
        ( "sessions",
          jint
            (Hashtbl.fold
               (fun _ (se : sess) n -> if se.worker = w then n + 1 else n)
               st.sessions 0) );
        ("requests", jint st.served_by_worker.(w));
        ("busy_s", jnum_opt (Option.map (fun t -> st.now -. t) st.busy.(w)));
        ("gc_major_words", jnum_opt (gauge "gc.major_words"));
        ("gc_minor_collections", jnum_opt (gauge "gc.minor_collections"));
      ]
  in
  let quantile_ms q =
    jnum_opt
      (Option.map (fun s -> s *. 1000.0)
         (Obs.Metrics.quantile st.metrics "serve.request.seconds" q))
  in
  Telemetry.to_json st.flight
    ~extra:
      [
        ("ts", Obs.Json.Num st.now);
        ("version", Obs.Json.Str version);
        ("uptime_s", Obs.Json.Num (st.now -. st.start_s));
        ("sessions", jint (Hashtbl.length st.sessions));
        ("inflight", jint (in_flight st));
        ("served", jint st.served);
        ("errors", jint st.errors);
        ("journal_bytes", jint st.journal_bytes);
        ("journal_entries", jint (journal_entries st));
        ("p50_ms", quantile_ms 0.50);
        ("p95_ms", quantile_ms 0.95);
        ("p99_ms", quantile_ms 0.99);
        ("workers", Obs.Json.Arr (List.init st.jobs worker_row));
      ]

(* The registry unlabelled, plus each sampled worker's GC gauges as
   domain="i". Point-in-time gauges are refreshed at scrape time. *)
let scrape st =
  let g = st.metrics in
  Obs.Metrics.set g "serve.uptime_seconds" (st.now -. st.start_s);
  Obs.Metrics.set g "serve.sessions" (float_of_int (Hashtbl.length st.sessions));
  Obs.Metrics.set g "serve.inflight" (float_of_int (in_flight st));
  Obs.Metrics.set g "serve.connections"
    (float_of_int
       (Hashtbl.fold (fun _ c n -> if c.http then n else n + 1) st.conns 0));
  let q = Gc.quick_stat () in
  Obs.Metrics.set g "gc.major_words" q.Gc.major_words;
  Obs.Metrics.set g "gc.minor_collections" (float_of_int q.Gc.minor_collections);
  let workers =
    List.filter
      (fun (_, reg) -> not (Obs.Metrics.is_empty reg))
      (List.mapi
         (fun w reg -> ([ ("domain", string_of_int w) ], reg))
         (Array.to_list st.worker_gc))
  in
  Obs.Prometheus.render (([], g) :: workers)

(* /metrics and /telemetry: HTTP/1.0, GET only, one response, close. *)
let http_route st line =
  let response status content_type body =
    Printf.sprintf
      "HTTP/1.0 %s\r\nContent-Type: %s\r\nContent-Length: %d\r\nConnection: close\r\n\r\n%s"
      status content_type (String.length body) body
  in
  match String.split_on_char ' ' line with
  | meth :: path :: _ -> (
      let path =
        match String.index_opt path '?' with
        | Some i -> String.sub path 0 i
        | None -> path
      in
      match (meth, path) with
      | "GET", "/metrics" ->
          response "200 OK" "text/plain; version=0.0.4; charset=utf-8"
            (scrape st)
      | "GET", "/telemetry" ->
          response "200 OK" "application/json"
            (Obs.Json.render (telemetry_json st) ^ "\n")
      | "GET", _ ->
          response "404 Not Found" "text/plain"
            "not found; try /metrics or /telemetry\n"
      | _ -> response "405 Method Not Allowed" "text/plain" "method not allowed\n")
  | _ -> response "400 Bad Request" "text/plain" "bad request\n"

(* ------------------------------------------------------------------ *)
(* Dispatch *)

(* Admission control: shed rather than queue without bound. The
   rejection is retryable; the request was never submitted. *)
let shed st =
  match st.max_inflight with
  | Some cap when in_flight st >= cap ->
      Obs.Metrics.incr st.metrics "serve.shed.overloaded";
      true
  | _ -> false

let begin_shutdown st =
  if not st.shutting then begin
    st.shutting <- true;
    st.deadline <- st.now +. st.shutdown_grace
  end

let dispatch st cid rid (req : P.request) =
  let respond = respond st cid rid in
  let admit k =
    if shed st then respond (rejected P.Overloaded "server overloaded; retry")
    else k ()
  in
  (* the one session lookup: replaying, unknown, then the request *)
  let with_session sid k =
    if Hashtbl.mem st.replaying sid then
      respond
        (rejected P.Worker_lost
           (Printf.sprintf "session %d is being replayed; retry" sid))
    else
      match Hashtbl.find_opt st.sessions sid with
      | None -> respond (unknown_session sid)
      | Some se -> k se
  in
  let on_session sid ~op job =
    with_session sid (fun se ->
        admit (fun () ->
            submit st ~conn:cid ~rid ~worker:se.worker ~sid ~op (job se)))
  in
  match req with
  | P.Open_session { ontology; data; query; max_extra } ->
      admit (fun () ->
          let sid = st.next_sid in
          st.next_sid <- sid + 1;
          let worker = next_worker st in
          submit st ~conn:cid ~rid ~worker ~sid ~op:"open_session"
            (open_job ~sid ~worker ~ontology ~data ~query ~max_extra))
  | P.Classify { ontology } ->
      admit (fun () ->
          submit st ~conn:cid ~rid ~worker:(next_worker st) ~op:"classify"
            (classify_job ontology))
  | P.Eval { session; budget; want_stats } ->
      on_session session ~op:"eval" (fun se -> eval_job st.caps se budget want_stats)
  | P.Insert_facts { session; facts } ->
      on_session session ~op:"insert_facts" (fun se ->
          update_job se ~insert:true session facts)
  | P.Retract_facts { session; facts } ->
      on_session session ~op:"retract_facts" (fun se ->
          update_job se ~insert:false session facts)
  | P.Close_session { session } ->
      with_session session (fun _ ->
          journal st ~conn:cid ~rid ~resp:(P.Closed { session })
            ~apply:(fun () -> Hashtbl.remove st.sessions session)
            (Journal.Close { sid = session }))
  | P.Stats -> respond (server_stats st)
  | P.Dump_telemetry -> respond (P.Telemetry { telemetry = telemetry_json st })
  | P.Shutdown ->
      begin_shutdown st;
      respond P.Shutdown_ack

let frame st cid line =
  match P.parse_request line with
  | Error (rid, (kind, message)) -> respond st cid rid (rejected kind message)
  | Ok (rid, P.Shutdown) -> dispatch st cid rid P.Shutdown
  | Ok (rid, _) when st.shutting ->
      respond st cid rid (rejected P.Shutting_down "daemon is shutting down")
  | Ok (rid, req) -> dispatch st cid rid req

(* Framing: split the input buffer on newlines; a line longer than
   [max_frame] gets one typed rejection and is otherwise discarded (the
   [discarding] flag skips its tail without buffering it), keeping the
   connection usable. While a journal write is outstanding the next
   frame waits: it may depend on the state change being acknowledged. *)
let rec frames st cid (c : conn) =
  if st.awaiting <> None then begin
    if not (List.mem cid st.blocked) then st.blocked <- cid :: st.blocked
  end
  else
    let too_large () =
      respond st cid None
        (rejected P.Frame_too_large
           (Printf.sprintf "frame exceeds %d bytes" st.max_frame))
    in
    let data = Buffer.contents c.inbuf in
    match String.index_opt data '\n' with
    | Some i ->
        Buffer.clear c.inbuf;
        Buffer.add_substring c.inbuf data (i + 1) (String.length data - i - 1);
        let len = if i > 0 && data.[i - 1] = '\r' then i - 1 else i in
        if c.discarding then c.discarding <- false
        else if len > st.max_frame then too_large ()
        else begin
          let line = String.sub data 0 len in
          if String.trim line <> "" then frame st cid line
        end;
        if Hashtbl.mem st.conns cid then frames st cid c
    | None ->
        if (not c.discarding) && Buffer.length c.inbuf > st.max_frame then begin
          Buffer.clear c.inbuf;
          c.discarding <- true;
          too_large ()
        end

let contains_blank_line s =
  let n = String.length s in
  let rec go i =
    match String.index_from_opt s i '\n' with
    | None -> false
    | Some i ->
        (i + 1 < n && s.[i + 1] = '\n')
        || (i + 2 < n && s.[i + 1] = '\r' && s.[i + 2] = '\n')
        || go (i + 1)
  in
  go 0

(* One HTTP request per connection; a request that never completes
   must not grow the buffer without bound. *)
let http_input st cid (c : conn) =
  if Buffer.length c.inbuf > 16384 then close st cid
  else if not c.answered then begin
    let data = Buffer.contents c.inbuf in
    if contains_blank_line data then begin
      let line =
        match String.index_opt data '\n' with
        | Some i when i > 0 && data.[i - 1] = '\r' -> String.sub data 0 (i - 1)
        | Some i -> String.sub data 0 i
        | None -> data
      in
      c.answered <- true;
      write st cid c (http_route st line)
    end
  end

let resume st =
  let blocked = List.rev st.blocked in
  st.blocked <- [];
  List.iter
    (fun cid ->
      match Hashtbl.find_opt st.conns cid with
      | Some c -> frames st cid c
      | None -> ())
    blocked

(* ------------------------------------------------------------------ *)
(* Events *)

let completed st (c : completion) =
  match Hashtbl.find_opt st.pending c.token with
  | None -> () (* failed by a quarantine or rebuild: drop the late result *)
  | Some p -> (
      Hashtbl.remove st.pending c.token;
      Option.iter (S.add ~into:st.reasoner) c.reply.work;
      Option.iter
        (function
          | `Insert -> Obs.Metrics.incr st.metrics "serve.delta.inserts"
          | `Retract -> Obs.Metrics.incr st.metrics "serve.delta.retracts"
          | `Reopen -> Obs.Metrics.incr st.metrics "serve.delta.reopens")
        c.reply.delta;
      (* One load + branch when telemetry is off; otherwise the flight
         record, the latency histogram and the worker's GC sample. *)
      if Telemetry.enabled st.flight then begin
        let dur_s = st.now -. p.submitted_s in
        Obs.Metrics.incr st.metrics "serve.requests";
        Obs.Metrics.observe st.metrics "serve.request.seconds" dur_s;
        st.served_by_worker.(c.worker) <- st.served_by_worker.(c.worker) + 1;
        Option.iter
          (fun (major, minor) ->
            Obs.Metrics.set st.worker_gc.(c.worker) "gc.major_words" major;
            Obs.Metrics.set st.worker_gc.(c.worker) "gc.minor_collections" minor)
          c.gc;
        Telemetry.record st.flight
          {
            Telemetry.ts_s = st.now;
            op = (if p.replay then "recovery" else p.op);
            outcome = outcome c.reply;
            worker = c.worker;
            session = p.sid;
            dur_s;
          }
      end;
      let resp = c.reply.resp in
      if p.replay then begin
        Hashtbl.remove st.replaying p.sid;
        match c.reply.register with
        | Some (New se) -> Hashtbl.replace st.sessions p.sid se
        | Some (Refresh _) | None ->
            (* replay failed: the session is gone for good *)
            Hashtbl.remove st.sessions p.sid;
            Obs.Metrics.incr st.metrics "serve.supervision.sessions_lost"
      end
      else
        let sid = p.sid in
        match c.reply.register with
        | None -> respond st p.conn p.rid resp
        | Some (New se) ->
            journal st ~conn:p.conn ~rid:p.rid ~resp
              ~apply:(fun () -> Hashtbl.replace st.sessions sid se)
              (List.hd se.log)
        | Some (Refresh entry) -> (
            match Hashtbl.find_opt st.sessions sid with
            | None ->
                (* the session was closed while the update ran: nothing
                   to acknowledge, nothing to journal *)
                respond st p.conn p.rid (unknown_session sid)
            | Some se ->
                journal st ~conn:p.conn ~rid:p.rid ~resp
                  ~apply:(fun () -> se.log <- entry :: se.log)
                  ~failed:(fun () -> rebuild st sid se)
                  entry))

let journaled st result =
  (match (st.awaiting, result) with
  | None, _ -> invalid_arg "Core.step: Journaled without a journal write"
  | Some (Ack a), Ok bytes ->
      st.awaiting <- None;
      st.journal_bytes <- bytes;
      Obs.Metrics.incr st.metrics "serve.journal.appends";
      a.apply ();
      respond st a.conn a.rid a.resp;
      maybe_compact st
  | Some (Ack a), Error msg ->
      st.awaiting <- None;
      a.failed ();
      respond st a.conn a.rid
        (rejected P.Internal ("journal append failed: " ^ msg))
  | Some (Compaction folded), Ok bytes ->
      st.awaiting <- None;
      st.journal_bytes <- bytes;
      List.iter (fun ((se : sess), e) -> se.log <- [ e ]) folded;
      Obs.Metrics.incr st.metrics "serve.journal.compactions"
  | Some (Compaction _), Error _ -> st.awaiting <- None);
  if st.awaiting = None then resume st

let event st = function
  | Journaled r -> journaled st r
  | Completed _ when st.awaiting <> None ->
      invalid_arg "Core.step: completion while a journal write is outstanding"
  | Completed c -> completed st c
  | Connected { conn; http } ->
      Hashtbl.replace st.conns conn
        {
          http;
          inbuf = Buffer.create (if http then 256 else 512);
          discarding = false;
          unsent = 0;
          answered = false;
        }
  | Input (cid, bytes) -> (
      match Hashtbl.find_opt st.conns cid with
      | None -> ()
      | Some c ->
          Buffer.add_string c.inbuf bytes;
          if c.http then http_input st cid c else frames st cid c)
  | Hangup cid -> if Hashtbl.mem st.conns cid then close st cid
  | Flushed (cid, n) -> (
      match Hashtbl.find_opt st.conns cid with
      | None -> ()
      | Some c ->
          c.unsent <- c.unsent - n;
          if c.http then (if c.answered && c.unsent = 0 then close st cid)
          else if c.unsent > st.max_outbuf then begin
            (* a reader that stopped draining must not grow our heap
               without bound; its session stays live *)
            Obs.Metrics.incr st.metrics "serve.shed.slow_disconnects";
            close st cid
          end)
  | Tick { now; busy } -> (
      st.now <- now;
      st.busy <- busy;
      match st.supervise with
      | None -> ()
      | Some limit ->
          Array.iteri
            (fun w -> function
              | Some t when now -. t > limit -> quarantine st w
              | _ -> ())
            busy)
  | Signal `Term -> begin_shutdown st
  | Signal `Usr1 -> emit st (Dump (telemetry_json st))

(* Drained: nothing submitted, no journal write outstanding, every wire
   response flushed. *)
let drained st =
  Hashtbl.length st.pending = 0
  && st.awaiting = None
  && Hashtbl.fold (fun _ c ok -> ok && (c.http || c.unsent = 0)) st.conns true

let step st ev =
  event st ev;
  if st.shutting && (not st.stopped) && (drained st || st.now > st.deadline)
  then begin
    st.stopped <- true;
    emit st Stop
  end;
  take st

let recover st ~bytes entries =
  st.journaled <- true;
  st.journal_bytes <- bytes;
  st.next_sid <- max st.next_sid (Journal.max_sid entries + 1);
  let live = Journal.live_sessions entries in
  Obs.Metrics.set_count st.metrics "serve.recovery.sessions" (List.length live);
  Obs.Metrics.set_count st.metrics "serve.recovery.entries"
    (List.fold_left (fun n (_, _, k) -> n + k) 0 live);
  List.iter
    (fun (sid, params, _) -> submit_replay st ~sid ~worker:(next_worker st) params)
    live;
  take st
