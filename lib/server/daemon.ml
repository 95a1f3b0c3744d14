(* The serve event loop.

   Single-owner architecture: this domain owns the listening socket,
   every connection, the session table, the journal and the
   served/error counters — no lock guards any of them. The only
   concurrency is the [Parallel.Service]: jobs run on worker domains
   and come back through its completion queue, which the loop drains at
   the top of every iteration; a one-byte self-pipe write (the
   service's [wakeup]) makes [select] return promptly when a completion
   lands.

   Sticky routing: a session's worker index is chosen round-robin at
   [open_session] and stored in the session record; every subsequent
   [eval] / [insert_facts] for it is submitted to that same mailbox.
   Combined with the per-mailbox FIFO this serialises all work of one
   session on one domain — required, because the engines live in that
   domain's DLS and are not movable.

   Crash-only discipline: every state-changing acknowledgement (open /
   insert / close) is journalled and fsync'd *before* the response
   bytes are queued (journal-before-ack), so after a kill -9 the
   journal replay reconstructs exactly the acknowledged state — an
   operation that was journalled but not acked is replayed harmlessly
   (the client never saw the ack and retries); one acked but not
   journalled cannot exist. Worker supervision rides the same
   machinery: a wedged worker domain is abandoned
   ([Parallel.Service.replace]), its in-flight requests fail with the
   retryable [Worker_lost], and its sessions are rebuilt on the fresh
   domain from their in-memory logs (the journal's mirror, kept even
   when no --journal is configured). *)

module P = Omq.Protocol
module S = Reasoner.Stats

type addr = Unix_path of string | Tcp of string * int

let pp_addr ppf = function
  | Unix_path p -> Fmt.pf ppf "unix:%s" p
  | Tcp (h, p) -> Fmt.pf ppf "%s:%d" h p

type config = {
  addr : addr;
  jobs : int;
  caps : P.budget_spec;
  max_frame : int;
  trace : (Obs.Export.format * string) option;
  log : bool;
  journal : string option;
  journal_compact : int;
  supervise : float option;
  max_inflight : int option;
  max_outbuf : int;
  shutdown_grace : float;
  signals : bool;
  chaos : Chaos.t option;
  metrics_addr : addr option;
  telemetry : bool;
  flight_dump : string option;
  flight_capacity : int;
}

let version = "0.9.0"
let default_max_frame = 8 * 1024 * 1024
let default_max_outbuf = 64 * 1024 * 1024
let default_journal_compact = 1024 * 1024
let default_shutdown_grace = 10.0

let config ~addr ?(jobs = 1) ?(caps = P.no_budget)
    ?(max_frame = default_max_frame) ?trace ?(log = false) ?journal
    ?(journal_compact = default_journal_compact) ?supervise ?max_inflight
    ?(max_outbuf = default_max_outbuf)
    ?(shutdown_grace = default_shutdown_grace) ?(signals = false) ?chaos
    ?metrics_addr ?(telemetry = true) ?flight_dump
    ?(flight_capacity = Telemetry.default_capacity) () =
  {
    addr;
    jobs;
    caps;
    max_frame;
    trace;
    log;
    journal;
    journal_compact;
    supervise;
    max_inflight;
    max_outbuf;
    shutdown_grace;
    signals;
    chaos;
    metrics_addr;
    telemetry;
    flight_dump;
    flight_capacity;
  }

let metric ?by name = Obs.Metrics.incr ?by (Obs.Metrics.global ()) name

(* ------------------------------------------------------------------ *)
(* Serving state *)

type sess = {
  omq : Omq.t;
  session : Omq.session;
  worker : int;  (** the one domain allowed to touch this session *)
  max_extra : int;
  mutable log : Journal.entry list;
      (** newest first; the head is the entry that acknowledges the
          latest state change, the reverse of the whole list is the
          session's replayable history *)
}

(* Session-table effect a completed job carries back to the loop. [New]
   always registers (it is the open that created the id); [Refresh] only
   replaces a still-live session, so an insert racing a close cannot
   resurrect it. *)
type reg = New of int * sess | Refresh of int * sess

type completion = {
  token : int;
  resp : P.response;
  register : reg option;
  worker : int;
  wstats : S.t;  (** cumulative snapshot of the worker's Stats.global *)
  msnap : Obs.Metrics.snapshot option;
      (** the worker's metrics registry (GC gauges included), snapshot
          at completion on the worker — the loop merges it at scrape
          time instead of racing the worker's DLS *)
  trace : Obs.Trace.t option;
}

(* What the loop remembers about a submitted job. A completion whose
   token is no longer here was already failed by a quarantine — its
   (impossible, see Service's abandonment protocol) late result must be
   dropped, not double-answered. [replay_sid] marks journal/log replay
   jobs: no journalling, no response, just session resurrection. *)
type pend = {
  conn_id : int;  (** -1 for replay jobs *)
  rid : int option;
  worker : int;
  replay_sid : int option;
  op : string;
  sid : int;  (** session the request addresses; -1 = none *)
  submitted_s : float;  (** loop-clock submit time, for flight dur *)
}

type conn = {
  id : int;
  fd : Unix.file_descr;
  inbuf : Buffer.t;
  stash : Buffer.t;
      (** chaos only: bytes read but withheld by a torn-read fault,
          delivered (possibly torn again) on later loop iterations *)
  mutable discarding : bool;  (** inside an oversized line: drop to \n *)
  mutable out : string;
  mutable outpos : int;
}

(* A /metrics scrape connection: plain HTTP/1.0 on the same select
   loop. One request, one response, close. *)
type hconn = {
  hid : int;
  hfd : Unix.file_descr;
  hin : Buffer.t;
  mutable hout : string;
  mutable houtpos : int;
}

type state = {
  cfg : config;
  service : completion Parallel.Service.t;
  tracing : bool;
  sessions : (int, sess) Hashtbl.t;
  conns : (int, conn) Hashtbl.t;
  pending : (int, pend) Hashtbl.t;  (** token -> submitted job *)
  replaying : (int, unit) Hashtbl.t;
      (** sids being rebuilt after a quarantine or at startup; requests
          for them are rejected with the retryable [Worker_lost] *)
  worker_stats : S.t array;
  worker_msnaps : Obs.Metrics.snapshot option array;
      (** latest per-worker metrics snapshot (GC gauges etc.) *)
  served_by_worker : int array;
  flight : Telemetry.t;
  http : (int, hconn) Hashtbl.t;
  mutable next_hid : int;
  start_s : float;
  mutable journal : Journal.t option;
  mutable next_sid : int;
  mutable next_conn_id : int;
  mutable next_token : int;
  mutable rr : int;
  mutable served : int;
  mutable errors : int;
  mutable shutting : bool;
  mutable shut_deadline : float;
}

(* ------------------------------------------------------------------ *)
(* Output: per-connection pending string + cursor, flushed as far as the
   socket accepts; the loop selects-for-write while any remains. *)

let pending_out conn = String.length conn.out > conn.outpos

let close_conn st conn =
  Hashtbl.remove st.conns conn.id;
  try Unix.close conn.fd with Unix.Unix_error _ -> ()

let rec try_flush st conn =
  let len = String.length conn.out - conn.outpos in
  if len > 0 then
    let decision =
      match st.cfg.chaos with
      | None -> `Write len
      | Some ch -> Chaos.on_write ch ~len
    in
    match decision with
    | `Stall -> ()
    | `Drop -> close_conn st conn
    | `Write k -> (
        match Unix.write_substring conn.fd conn.out conn.outpos k with
        | 0 -> ()
        | n ->
            conn.outpos <- conn.outpos + n;
            (* after a chaos short write, stop: the remainder waits for
               the next select-for-write, like a real partial write *)
            if n = k && k = len then try_flush st conn
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
            ()
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> try_flush st conn
        | exception Unix.Unix_error _ -> close_conn st conn)

let respond st conn rid resp =
  st.served <- st.served + 1;
  (match resp with P.Rejected _ -> st.errors <- st.errors + 1 | _ -> ());
  let line = P.render_response ?id:rid resp ^ "\n" in
  let rest =
    if conn.outpos = 0 then conn.out
    else String.sub conn.out conn.outpos (String.length conn.out - conn.outpos)
  in
  conn.out <- rest ^ line;
  conn.outpos <- 0;
  try_flush st conn;
  (* A reader that stopped draining must not grow our heap without
     bound: past the cap the connection is shed. Its session (if any)
     stays live — only the transport is dropped. *)
  if
    Hashtbl.mem st.conns conn.id
    && String.length conn.out - conn.outpos > st.cfg.max_outbuf
  then begin
    metric "serve.shed.slow_disconnects";
    close_conn st conn
  end

(* ------------------------------------------------------------------ *)
(* Input loading from request payload strings; the same error-message
   shape as omq_tool's file loaders, with the field name as "file". *)

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

let element_name e = Fmt.str "%a" Structure.Element.pp e

(* ------------------------------------------------------------------ *)
(* Budgets and stats *)

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

(* ------------------------------------------------------------------ *)
(* Worker jobs. Each returns (response, session-table effect); raising
   is reserved for bugs and is mapped to a typed Internal response by
   [submit_job], never to a daemon crash. *)

let outcome_of = function
  | P.Partial { reason; _ } | P.Decide_partial { reason; _ } ->
      P.reason_name reason
  | P.Rejected _ -> "error"
  | _ -> "ok"

let new_token st =
  let t = st.next_token in
  st.next_token <- t + 1;
  t

(* Submit a job and remember it in the pending table. [conn_id = -1]
   with [replay_sid = Some _] is a replay job: it answers nobody, it
   just rebuilds a session. Chaos worker poisoning hooks in here — the
   decision is taken on the loop domain (keeping the fault plan's
   decision stream totally ordered); the poisoned job wedges forever,
   exactly what supervision must detect. Replay jobs are never
   poisoned: recovery must make progress. *)
(* GC sampling cadence on a worker: job 0, then every Nth. The counter
   is DLS so each worker domain ticks its own. *)
let gc_sample_every = 32
let gc_sample_tick = Domain.DLS.new_key (fun () -> ref 0)

let tick_gc_sample () =
  let c = Domain.DLS.get gc_sample_tick in
  let n = !c in
  c := n + 1;
  n mod gc_sample_every = 0

let submit_raw st ~conn_id ~rid ~worker ~replay_sid ?(sid = -1) ~op make =
  let token = new_token st in
  Hashtbl.replace st.pending token
    {
      conn_id;
      rid;
      worker;
      replay_sid;
      op;
      sid;
      submitted_s = Obs.Clock.now ();
    };
  let tracing = st.tracing in
  let telemetry = Telemetry.enabled st.flight in
  let make =
    match st.cfg.chaos with
    | Some ch when replay_sid = None && Chaos.poison_now ch ~worker ->
        fun () -> Chaos.block ()
    | _ -> make
  in
  Parallel.Service.submit st.service ~worker (fun () ->
      let job () =
        try make () with
        | e ->
            ( P.Rejected { kind = P.Internal; message = Printexc.to_string e },
              None )
      in
      let (resp, register), trace =
        if tracing then
          let r, col =
            Obs.Trace.collect (fun () ->
                Obs.Trace.with_span
                  ~attrs:[ ("op", Obs.Trace.Str op) ]
                  "serve.request"
                  (fun () ->
                    let ((resp, _) as r) = job () in
                    Obs.Trace.add_attr "outcome"
                      (Obs.Trace.Str (outcome_of resp));
                    r))
          in
          (r, Some col)
        else (job (), None)
      in
      (* Per-request-batch GC sampling (the instrument ROADMAP item 3
         asks for): quick_stat is cheap and runs on the worker, so the
         gauges land in the worker's own DLS registry; the snapshot
         ships the whole registry to the loop in the completion.
         Sampling every completion would tax the hot path (and, on
         starved hosts, amplify domain thrash), so each worker samples
         its first job and then every [gc_sample_every]th; the loop
         keeps the last shipped snapshot in between. *)
      let msnap =
        if telemetry && tick_gc_sample () then begin
          let g = Obs.Metrics.global () in
          let q = Gc.quick_stat () in
          Obs.Metrics.set g "gc.major_words" q.Gc.major_words;
          Obs.Metrics.set g "gc.minor_collections"
            (float_of_int q.Gc.minor_collections);
          Some (Obs.Metrics.snapshot g)
        end
        else None
      in
      { token; resp; register; worker; wstats = S.copy (S.global ()); msnap; trace })

let submit_job st conn rid ~worker ?sid ~op make =
  submit_raw st ~conn_id:conn.id ~rid ~worker ~replay_sid:None ?sid ~op make

let open_job ~sid ~worker ~ontology ~data ~query ~max_extra () =
  let ( let* ) r f =
    match r with
    | Ok v -> f v
    | Error msg -> (P.Rejected { kind = P.Bad_request; message = msg }, None)
  in
  let* tbox = load_tbox_text ontology in
  let* inst = load_instance_text "data" data in
  let* q = load_query_text query in
  let omq = Omq.of_tbox tbox q in
  (* Daemon sessions are updatable: their engines carry fact assumptions
     so insert_facts/retract_facts delta-maintain instead of reopening. *)
  let session = Omq.open_session ~max_extra ~updatable:true omq inst in
  let log = [ Journal.Open { sid; ontology; data; query; max_extra } ] in
  ( P.Opened { session = sid },
    Some (New (sid, { omq; session; worker; max_extra; log })) )

let eval_job st (se : sess) (want : P.budget_spec) want_stats () =
  let budget = budget_of_spec (clamp st.cfg.caps want) in
  let g = S.global () in
  let before = S.copy g in
  let boolean = Query.Ucq.is_boolean se.omq.Omq.query in
  let names = List.map (List.map element_name) in
  let stats () =
    if want_stats then Some (S.json (S.diff g before))
    else None
  in
  let partial reason (p : Omq.Session.partial_answers) =
    let resume_from =
      match p.Omq.Session.undecided () with
      | Seq.Nil -> None
      | Seq.Cons (t, _) -> Some (List.map element_name t)
    in
    P.Partial
      {
        reason;
        certified = names p.Omq.Session.certified;
        resume_from;
        stats = stats ();
      }
  in
  let complete consistent answers =
    P.Evaled
      {
        result = { P.consistent; boolean; tuples = names answers };
        stats = stats ();
      }
  in
  let no_partial = { Omq.Session.certified = []; undecided = Seq.empty } in
  let resp =
    match Omq.Session.is_consistent_within budget se.session with
    | `Timeout () -> partial Reasoner.Budget.Timeout no_partial
    | `Out_of_fuel () -> partial Reasoner.Budget.Fuel no_partial
    | `Ok false -> complete false []
    | `Ok true -> (
        match Omq.Session.certain_answers_within budget se.session with
        | `Ok answers -> complete true answers
        | `Timeout p -> partial Reasoner.Budget.Timeout p
        | `Out_of_fuel p -> partial Reasoner.Budget.Fuel p)
  in
  (resp, None)

let classify_job ontology () =
  match load_tbox_text ontology with
  | Error msg -> (P.Rejected { kind = P.Bad_request; message = msg }, None)
  | Ok tbox ->
      let o = Dl.Translate.tbox tbox in
      let fragment = Option.map Gf.Fragment.name (Gf.Fragment.of_ontology o) in
      let ev = Classify.Landscape.of_tbox tbox in
      ( P.Classified
          {
            dl_name = Dl.Tbox.name tbox;
            depth = Dl.Tbox.depth tbox;
            fragment;
            status = Fmt.str "%a" Classify.Landscape.pp_status ev.status;
            evidence_fragment = ev.Classify.Landscape.fragment;
            source = ev.Classify.Landscape.source;
          },
        None )

(* Insert/retract delta-maintain the session's engines where possible
   (Omq.Session falls back to a reopen when not); the strategy taken is
   counted on the worker's registry and ships with the completion
   snapshot. *)
let insert_job (se : sess) sid facts () =
  match load_instance_text "facts" facts with
  | Error msg -> (P.Rejected { kind = P.Bad_request; message = msg }, None)
  | Ok extra ->
      let session, strategy =
        Omq.Session.insert_facts se.session (Structure.Instance.facts extra)
      in
      (match strategy with
      | `Delta -> metric "serve.delta.inserts"
      | `Reopen -> metric "serve.delta.reopens");
      ( P.Inserted
          {
            session = sid;
            total_facts =
              Structure.Instance.cardinal (Omq.Session.instance session);
          },
        Some
          (Refresh
             ( sid,
               { se with session; log = Journal.Insert { sid; facts } :: se.log }
             )) )

let retract_job (se : sess) sid facts () =
  match load_instance_text "facts" facts with
  | Error msg -> (P.Rejected { kind = P.Bad_request; message = msg }, None)
  | Ok gone ->
      let session, strategy =
        Omq.Session.retract_facts se.session (Structure.Instance.facts gone)
      in
      (match strategy with
      | `Delta -> metric "serve.delta.retracts"
      | `Reopen -> metric "serve.delta.reopens");
      ( P.Retracted
          {
            session = sid;
            total_facts =
              Structure.Instance.cardinal (Omq.Session.instance session);
          },
        Some
          (Refresh
             ( sid,
               {
                 se with
                 session;
                 log = Journal.Retract { sid; facts } :: se.log;
               } )) )

(* ------------------------------------------------------------------ *)
(* Journal plumbing (all on the loop domain) *)

let journal_append st entry =
  match st.journal with
  | None -> Ok ()
  | Some j -> (
      try
        Journal.append j entry;
        metric "serve.journal.appends";
        Ok ()
      with Unix.Unix_error (e, _, _) -> Error (Unix.error_message e))

(* A session's whole history folded to one Open on its union data —
   what compaction writes and what replay re-opens. *)
let folded_entry sid (se : sess) =
  match Journal.live_sessions (List.rev se.log) with
  | [ (_, (ontology, data, query, max_extra), _) ] ->
      Journal.Open { sid; ontology; data; query; max_extra }
  | _ -> Journal.Open { sid; ontology = ""; data = ""; query = ""; max_extra = 0 }

let maybe_compact st =
  match st.journal with
  | Some j
    when st.cfg.journal_compact > 0 && Journal.size j > st.cfg.journal_compact
    -> (
      let sids =
        List.sort compare
          (Hashtbl.fold (fun sid _ acc -> sid :: acc) st.sessions [])
      in
      let folded =
        List.map (fun sid -> (sid, folded_entry sid (Hashtbl.find st.sessions sid))) sids
      in
      try
        Journal.compact j (List.map snd folded);
        List.iter
          (fun (sid, e) -> (Hashtbl.find st.sessions sid).log <- [ e ])
          folded;
        metric "serve.journal.compactions"
      with Unix.Unix_error (e, _, _) ->
        if st.cfg.log then
          Obs.Log.error "journal compaction failed"
            ~fields:[ Obs.Log.Str ("error", Unix.error_message e) ])
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* Request dispatch (on the loop domain) *)

let unknown_session sid =
  P.Rejected
    {
      kind = P.Unknown_session;
      message = Printf.sprintf "no session %d" sid;
    }

let replay_pending sid =
  P.Rejected
    {
      kind = P.Worker_lost;
      message = Printf.sprintf "session %d is being replayed; retry" sid;
    }

let jint i = P.Json.Num (float_of_int i)

(* The daemon-side serve.* counters (journal, shed, supervision, chaos)
   as one flat JSON object, read out of the loop registry. *)
let serve_counters () =
  let g = Obs.Metrics.global () in
  let members =
    List.filter_map
      (fun name ->
        if String.length name >= 6 && String.sub name 0 6 = "serve." then
          match Obs.Metrics.counter_value g name with
          | Some v -> Some (name, jint v)
          | None -> None
        else None)
      (Obs.Metrics.names g)
  in
  P.Json.Obj members

let journal_entry_count () =
  Option.value ~default:0
    (Obs.Metrics.counter_value (Obs.Metrics.global ()) "serve.journal.appends")

let server_stats st =
  let total = S.create () in
  Array.iter (fun w -> S.add ~into:total w) st.worker_stats;
  P.Server_stats
    {
      uptime_s = Obs.Clock.now () -. st.start_s;
      server_version = version;
      sessions = Hashtbl.length st.sessions;
      served = st.served;
      errors = st.errors;
      inflight = Parallel.Service.in_flight st.service;
      journal_bytes =
        (match st.journal with Some j -> Journal.size j | None -> 0);
      journal_entries = journal_entry_count ();
      counters = serve_counters ();
      reasoner = S.json total;
    }

(* ------------------------------------------------------------------ *)
(* Live telemetry: the dump payload (SIGUSR1 + dump_telemetry) and the
   Prometheus scrape. Both run on the loop domain over loop-owned
   state; worker registries enter only as completion-shipped
   snapshots, never by touching another domain's DLS. *)

let worker_sessions st w =
  Hashtbl.fold
    (fun _ (se : sess) n -> if se.worker = w then n + 1 else n)
    st.sessions 0

(* Gauge lookup inside a shipped snapshot: merge it into a scratch
   registry (snapshots are tiny — a handful of gauges). *)
let snap_gauge snap name =
  match snap with
  | None -> None
  | Some snap ->
      Obs.Metrics.gauge_value (Obs.Metrics.merge_snapshots [ snap ]) name

let quantile_ms name q =
  Obs.Metrics.quantile (Obs.Metrics.global ()) name q
  |> Option.map (fun s -> s *. 1000.0)

let jnum_opt = function Some v -> P.Json.Num v | None -> P.Json.Null

let telemetry_json st =
  let now = Obs.Clock.now () in
  let jobs = Parallel.Service.jobs st.service in
  let worker_row w =
    let snap = st.worker_msnaps.(w) in
    P.Json.Obj
      [
        ("domain", jint w);
        ("sessions", jint (worker_sessions st w));
        ("requests", jint st.served_by_worker.(w));
        ( "busy_s",
          jnum_opt
            (Option.map (fun t -> now -. t)
               (Parallel.Service.busy_since st.service ~worker:w)) );
        ("gc_major_words", jnum_opt (snap_gauge snap "gc.major_words"));
        ( "gc_minor_collections",
          jnum_opt (snap_gauge snap "gc.minor_collections") );
      ]
  in
  let extra =
    [
      ("ts", P.Json.Num now);
      ("version", P.Json.Str version);
      ("uptime_s", P.Json.Num (now -. st.start_s));
      ("sessions", jint (Hashtbl.length st.sessions));
      ("inflight", jint (Parallel.Service.in_flight st.service));
      ("served", jint st.served);
      ("errors", jint st.errors);
      ("journal_bytes",
       jint (match st.journal with Some j -> Journal.size j | None -> 0));
      ("journal_entries", jint (journal_entry_count ()));
      ("p50_ms", jnum_opt (quantile_ms "serve.request.seconds" 0.50));
      ("p95_ms", jnum_opt (quantile_ms "serve.request.seconds" 0.95));
      ("p99_ms", jnum_opt (quantile_ms "serve.request.seconds" 0.99));
      ("workers", P.Json.Arr (List.init jobs worker_row));
    ]
  in
  Telemetry.to_json ~extra st.flight

(* The exposition: the loop registry (request counters/latency
   histogram, shed/journal/supervision counters, loop GC) unlabelled,
   plus each worker's last snapshot as domain="i". Point-in-time
   gauges are refreshed here, at scrape time. *)
let scrape st =
  let g = Obs.Metrics.global () in
  let now = Obs.Clock.now () in
  Obs.Metrics.set g "serve.uptime_seconds" (now -. st.start_s);
  Obs.Metrics.set g "serve.sessions" (float_of_int (Hashtbl.length st.sessions));
  Obs.Metrics.set g "serve.inflight"
    (float_of_int (Parallel.Service.in_flight st.service));
  Obs.Metrics.set g "serve.connections"
    (float_of_int (Hashtbl.length st.conns));
  let q = Gc.quick_stat () in
  Obs.Metrics.set g "gc.major_words" q.Gc.major_words;
  Obs.Metrics.set g "gc.minor_collections" (float_of_int q.Gc.minor_collections);
  let workers =
    List.filter_map
      (fun w ->
        match st.worker_msnaps.(w) with
        | None -> None
        | Some snap ->
            Some
              ( [ ("domain", string_of_int w) ],
                Obs.Metrics.merge_snapshots [ snap ] ))
      (List.init (Array.length st.worker_msnaps) Fun.id)
  in
  Obs.Prometheus.render (([], g) :: workers)

(* ------------------------------------------------------------------ *)
(* The /metrics HTTP listener: HTTP/1.0, GET only, close after one
   response — small enough to live on the select loop without an HTTP
   dependency. *)

let close_http st (h : hconn) =
  Hashtbl.remove st.http h.hid;
  try Unix.close h.hfd with Unix.Unix_error _ -> ()

let http_pending_out (h : hconn) = String.length h.hout > h.houtpos

let try_flush_http st (h : hconn) =
  let rec go () =
    let len = String.length h.hout - h.houtpos in
    if len = 0 then close_http st h
    else
      match Unix.write_substring h.hfd h.hout h.houtpos len with
      | 0 -> ()
      | n ->
          h.houtpos <- h.houtpos + n;
          go ()
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
          ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
      | exception Unix.Unix_error _ -> close_http st h
  in
  go ()

let http_response ~status ~content_type body =
  Printf.sprintf
    "HTTP/1.0 %s\r\nContent-Type: %s\r\nContent-Length: %d\r\nConnection: close\r\n\r\n%s"
    status content_type (String.length body) body

let contains_blank_line s =
  let n = String.length s in
  let rec go i =
    if i >= n then false
    else if s.[i] = '\n' then
      if i + 1 < n && s.[i + 1] = '\n' then true
      else if i + 2 < n && s.[i + 1] = '\r' && s.[i + 2] = '\n' then true
      else go (i + 1)
    else go (i + 1)
  in
  go 0

let http_route st line =
  match String.split_on_char ' ' line with
  | meth :: path :: _ ->
      let path =
        match String.index_opt path '?' with
        | Some i -> String.sub path 0 i
        | None -> path
      in
      if meth <> "GET" then
        http_response ~status:"405 Method Not Allowed"
          ~content_type:"text/plain" "method not allowed\n"
      else if path = "/metrics" then
        http_response ~status:"200 OK"
          ~content_type:"text/plain; version=0.0.4; charset=utf-8" (scrape st)
      else if path = "/telemetry" then
        http_response ~status:"200 OK" ~content_type:"application/json"
          (P.Json.render (telemetry_json st) ^ "\n")
      else
        http_response ~status:"404 Not Found" ~content_type:"text/plain"
          "not found; try /metrics or /telemetry\n"
  | _ ->
      http_response ~status:"400 Bad Request" ~content_type:"text/plain"
        "bad request\n"

let handle_http_readable st (h : hconn) =
  let buf = Bytes.create 4096 in
  let rec go () =
    if Hashtbl.mem st.http h.hid then
      match Unix.read h.hfd buf 0 (Bytes.length buf) with
      | 0 -> if not (http_pending_out h) then close_http st h
      | n ->
          Buffer.add_subbytes h.hin buf 0 n;
          (* a request buffer that never completes must not grow without
             bound *)
          if Buffer.length h.hin > 16384 then close_http st h
          else begin
            let data = Buffer.contents h.hin in
            if h.hout = "" && contains_blank_line data then begin
              let line =
                match String.index_opt data '\n' with
                | Some i ->
                    let l = String.sub data 0 i in
                    if l <> "" && l.[String.length l - 1] = '\r' then
                      String.sub l 0 (String.length l - 1)
                    else l
                | None -> data
              in
              h.hout <- http_route st line;
              try_flush_http st h
            end;
            go ()
          end
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
          ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
      | exception Unix.Unix_error _ -> close_http st h
  in
  go ()

let next_worker st =
  let w = st.rr mod Parallel.Service.jobs st.service in
  st.rr <- st.rr + 1;
  w

(* Admission control: shed rather than queue without bound. The
   rejection is [Overloaded] — retryable, the request was never
   submitted. *)
let shed st =
  match st.cfg.max_inflight with
  | Some cap when Parallel.Service.in_flight st.service >= cap ->
      metric "serve.shed.overloaded";
      true
  | _ -> false

let overloaded =
  P.Rejected { kind = P.Overloaded; message = "server overloaded; retry" }

let dispatch st conn rid (req : P.request) =
  match req with
  | P.Open_session { ontology; data; query; max_extra } ->
      if shed st then respond st conn rid overloaded
      else begin
        let sid = st.next_sid in
        st.next_sid <- sid + 1;
        let worker = next_worker st in
        submit_job st conn rid ~worker ~sid ~op:"open_session"
          (open_job ~sid ~worker ~ontology ~data ~query ~max_extra)
      end
  | P.Close_session { session } ->
      if Hashtbl.mem st.replaying session then
        respond st conn rid (replay_pending session)
      else if Hashtbl.mem st.sessions session then begin
        match journal_append st (Journal.Close { sid = session }) with
        | Ok () ->
            Hashtbl.remove st.sessions session;
            respond st conn rid (P.Closed { session })
        | Error msg ->
            respond st conn rid
              (P.Rejected
                 { kind = P.Internal; message = "journal append failed: " ^ msg })
      end
      else respond st conn rid (unknown_session session)
  | P.Eval { session; budget; want_stats } -> (
      if Hashtbl.mem st.replaying session then
        respond st conn rid (replay_pending session)
      else
        match Hashtbl.find_opt st.sessions session with
        | None -> respond st conn rid (unknown_session session)
        | Some se ->
            if shed st then respond st conn rid overloaded
            else
              submit_job st conn rid ~worker:se.worker ~sid:session ~op:"eval"
                (eval_job st se budget want_stats))
  | P.Classify { ontology } ->
      if shed st then respond st conn rid overloaded
      else
        submit_job st conn rid ~worker:(next_worker st) ~op:"classify"
          (classify_job ontology)
  | P.Insert_facts { session; facts } -> (
      if Hashtbl.mem st.replaying session then
        respond st conn rid (replay_pending session)
      else
        match Hashtbl.find_opt st.sessions session with
        | None -> respond st conn rid (unknown_session session)
        | Some se ->
            if shed st then respond st conn rid overloaded
            else
              submit_job st conn rid ~worker:se.worker ~sid:session
                ~op:"insert_facts" (insert_job se session facts))
  | P.Retract_facts { session; facts } -> (
      if Hashtbl.mem st.replaying session then
        respond st conn rid (replay_pending session)
      else
        match Hashtbl.find_opt st.sessions session with
        | None -> respond st conn rid (unknown_session session)
        | Some se ->
            if shed st then respond st conn rid overloaded
            else
              submit_job st conn rid ~worker:se.worker ~sid:session
                ~op:"retract_facts" (retract_job se session facts))
  | P.Stats -> respond st conn rid (server_stats st)
  | P.Dump_telemetry ->
      respond st conn rid (P.Telemetry { telemetry = telemetry_json st })
  | P.Shutdown ->
      st.shutting <- true;
      st.shut_deadline <- Obs.Clock.now () +. st.cfg.shutdown_grace;
      respond st conn rid P.Shutdown_ack

let handle_frame st conn line =
  match P.parse_request line with
  | Error (rid, (kind, message)) ->
      respond st conn rid (P.Rejected { kind; message })
  | Ok (rid, P.Shutdown) -> dispatch st conn rid P.Shutdown
  | Ok (rid, req) ->
      if st.shutting then
        respond st conn rid
          (P.Rejected
             { kind = P.Shutting_down; message = "daemon is shutting down" })
      else dispatch st conn rid req

(* ------------------------------------------------------------------ *)
(* Framing: split the input buffer on newlines; a line longer than
   [max_frame] gets one typed rejection and is otherwise discarded (the
   [discarding] flag skips its tail without buffering it), keeping the
   connection usable. *)

let too_large st =
  P.Rejected
    {
      kind = P.Frame_too_large;
      message =
        Printf.sprintf "frame exceeds %d bytes" st.cfg.max_frame;
    }

let rec process_frames st conn =
  let data = Buffer.contents conn.inbuf in
  match String.index_opt data '\n' with
  | Some i ->
      let line = String.sub data 0 i in
      let rest = String.sub data (i + 1) (String.length data - i - 1) in
      Buffer.clear conn.inbuf;
      Buffer.add_string conn.inbuf rest;
      let line =
        if String.length line > 0 && line.[String.length line - 1] = '\r'
        then String.sub line 0 (String.length line - 1)
        else line
      in
      if conn.discarding then conn.discarding <- false
      else if String.length line > st.cfg.max_frame then
        respond st conn None (too_large st)
      else if String.trim line <> "" then handle_frame st conn line;
      if Hashtbl.mem st.conns conn.id then process_frames st conn
  | None ->
      if (not conn.discarding) && Buffer.length conn.inbuf > st.cfg.max_frame
      then begin
        Buffer.clear conn.inbuf;
        conn.discarding <- true;
        respond st conn None (too_large st)
      end

(* Deliver (a chaos-chosen prefix of) a connection's stashed bytes into
   its input buffer. Bytes withheld here come back on a later loop
   iteration — exactly a frame torn across select wakeups. *)
let deliver_stash st conn =
  match st.cfg.chaos with
  | None -> ()
  | Some ch ->
      let avail = Buffer.length conn.stash in
      if avail > 0 && Hashtbl.mem st.conns conn.id then (
        match Chaos.on_read ch ~avail with
        | `Drop -> close_conn st conn
        | `Deliver k ->
            let data = Buffer.contents conn.stash in
            Buffer.clear conn.stash;
            Buffer.add_substring conn.inbuf data 0 k;
            if k < avail then Buffer.add_substring conn.stash data k (avail - k);
            process_frames st conn)

let handle_readable st conn =
  let buf = Bytes.create 65536 in
  let rec go () =
    if Hashtbl.mem st.conns conn.id then
      match Unix.read conn.fd buf 0 (Bytes.length buf) with
      | 0 -> close_conn st conn
      | n ->
          (match st.cfg.chaos with
          | None ->
              Buffer.add_subbytes conn.inbuf buf 0 n;
              process_frames st conn
          | Some _ ->
              (* append behind any withheld bytes to preserve order *)
              Buffer.add_subbytes conn.stash buf 0 n;
              deliver_stash st conn);
          go ()
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
          ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
      | exception Unix.Unix_error _ -> close_conn st conn
  in
  go ()

(* ------------------------------------------------------------------ *)
(* Completions, replay and supervision *)

let submit_replay st ~sid ~worker ~ontology ~data ~query ~max_extra =
  Hashtbl.replace st.replaying sid ();
  submit_raw st ~conn_id:(-1) ~rid:None ~worker ~replay_sid:(Some sid) ~sid
    ~op:"replay_session"
    (open_job ~sid ~worker ~ontology ~data ~query ~max_extra)

let handle_completion st (c : completion) =
  match Hashtbl.find_opt st.pending c.token with
  | None -> () (* already failed by a quarantine; drop the late result *)
  | Some p -> (
      Hashtbl.remove st.pending c.token;
      st.worker_stats.(c.worker) <- c.wstats;
      (* One load + branch when telemetry is off; otherwise the flight
         record, the latency histogram and the per-worker snapshot. *)
      if Telemetry.enabled st.flight then begin
        let now = Obs.Clock.now () in
        let dur_s = now -. p.submitted_s in
        let g = Obs.Metrics.global () in
        Obs.Metrics.incr g "serve.requests";
        Obs.Metrics.observe g "serve.request.seconds" dur_s;
        st.served_by_worker.(c.worker) <- st.served_by_worker.(c.worker) + 1;
        (match c.msnap with
        | Some _ -> st.worker_msnaps.(c.worker) <- c.msnap
        | None -> ());
        Telemetry.record st.flight
          {
            Telemetry.ts_s = now;
            op = (if p.replay_sid <> None then "recovery" else p.op);
            outcome = outcome_of c.resp;
            worker = c.worker;
            session = p.sid;
            dur_s;
          }
      end;
      (match c.trace with
      | Some col -> (
          match Obs.Trace.active () with
          | Some into ->
              Obs.Trace.absorb ~attrs:[ ("domain", Obs.Trace.Int c.worker) ]
                ~into col
          | None -> ())
      | None -> ());
      match p.replay_sid with
      | Some sid -> (
          Hashtbl.remove st.replaying sid;
          match c.register with
          | Some (New (s, se)) -> Hashtbl.replace st.sessions s se
          | Some (Refresh _) | None ->
              (* replay failed: the session is gone for good *)
              Hashtbl.remove st.sessions sid;
              metric "serve.supervision.sessions_lost";
              if st.cfg.log then
                Obs.Log.warn "session lost: replay failed"
                  ~fields:
                    [
                      Obs.Log.Int ("session", sid);
                      Obs.Log.Str
                        ( "error",
                          match c.resp with
                          | P.Rejected { message; _ } -> message
                          | _ -> "unexpected response" );
                    ])
      | None ->
          (* Journal-before-ack: the entry that acknowledges the state
             change (the head of the registered session's log) must be
             durable before the response bytes exist. On journal
             failure the op is not applied and not acked. *)
          let resp = ref c.resp in
          (match c.register with
          | Some reg -> (
              let se = match reg with New (_, se) | Refresh (_, se) -> se in
              match journal_append st (List.hd se.log) with
              | Ok () ->
                  (match reg with
                  | New (sid, se) -> Hashtbl.replace st.sessions sid se
                  | Refresh (sid, se) ->
                      if Hashtbl.mem st.sessions sid then
                        Hashtbl.replace st.sessions sid se);
                  maybe_compact st
              | Error msg ->
                  resp :=
                    P.Rejected
                      {
                        kind = P.Internal;
                        message = "journal append failed: " ^ msg;
                      })
          | None -> ());
          (match Hashtbl.find_opt st.conns p.conn_id with
          | Some conn -> respond st conn p.rid !resp
          | None -> ()))

(* Abandon worker [w]'s domain, fail everything routed to it with the
   retryable [Worker_lost], and rebuild its sessions from their
   in-memory logs on a fresh domain at the same index (sticky pins stay
   valid). Requests arriving for a session mid-replay are rejected
   retryable until its replay completion registers. *)
let quarantine st w =
  let _discarded = Parallel.Service.replace st.service ~worker:w in
  metric "serve.supervision.quarantines";
  if st.cfg.log then
    Obs.Log.warn "worker quarantined" ~fields:[ Obs.Log.Int ("worker", w) ];
  let victims =
    Hashtbl.fold
      (fun tok p acc -> if p.worker = w then (tok, p) :: acc else acc)
      st.pending []
  in
  List.iter
    (fun (tok, p) ->
      Hashtbl.remove st.pending tok;
      match p.replay_sid with
      | Some sid ->
          (* a replay job itself was lost; the session scan below
             resubmits it (or counts it lost if the record is gone) *)
          Hashtbl.remove st.replaying sid;
          if not (Hashtbl.mem st.sessions sid) then
            metric "serve.supervision.sessions_lost"
      | None -> (
          metric "serve.supervision.requests_failed";
          match Hashtbl.find_opt st.conns p.conn_id with
          | Some conn ->
              respond st conn p.rid
                (P.Rejected
                   {
                     kind = P.Worker_lost;
                     message = "worker quarantined; retry";
                   })
          | None -> ()))
    victims;
  Hashtbl.iter
    (fun sid (se : sess) ->
      if se.worker = w && not (Hashtbl.mem st.replaying sid) then begin
        metric "serve.supervision.sessions_replayed";
        match folded_entry sid se with
        | Journal.Open { ontology; data; query; max_extra; _ } ->
            submit_replay st ~sid ~worker:w ~ontology ~data ~query ~max_extra
        | _ -> ()
      end)
    st.sessions

let supervise st =
  match st.cfg.supervise with
  | None -> ()
  | Some deadline ->
      let now = Obs.Clock.now () in
      for w = 0 to Parallel.Service.jobs st.service - 1 do
        match Parallel.Service.busy_since st.service ~worker:w with
        | Some t when now -. t > deadline -> quarantine st w
        | _ -> ()
      done

(* ------------------------------------------------------------------ *)
(* Socket setup and the loop *)

let listen_on = function
  | Unix_path path ->
      if Sys.file_exists path then begin
        try Unix.unlink path with Unix.Unix_error _ | Sys_error _ -> ()
      end;
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.bind fd (Unix.ADDR_UNIX path);
      Unix.listen fd 128;
      Unix.set_nonblock fd;
      fd
  | Tcp (host, port) ->
      let ip =
        try Unix.inet_addr_of_string host
        with Failure _ -> (Unix.gethostbyname host).Unix.h_addr_list.(0)
      in
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.setsockopt fd Unix.SO_REUSEADDR true;
      Unix.bind fd (Unix.ADDR_INET (ip, port));
      Unix.listen fd 128;
      Unix.set_nonblock fd;
      fd

let all_conns st = Hashtbl.fold (fun _ c acc -> c :: acc) st.conns []
let all_http st = Hashtbl.fold (fun _ h acc -> h :: acc) st.http []

let no_pending_out st =
  Hashtbl.fold (fun _ c ok -> ok && not (pending_out c)) st.conns true

let any_stash st =
  Hashtbl.fold (fun _ c any -> any || Buffer.length c.stash > 0) st.conns false

let run ?(ready = fun () -> ()) cfg =
  let prev_pipe =
    try Some (Sys.signal Sys.sigpipe Sys.Signal_ignore)
    with Invalid_argument _ | Sys_error _ -> None
  in
  let restore_pipe () =
    match prev_pipe with
    | Some h -> (
        try Sys.set_signal Sys.sigpipe h
        with Invalid_argument _ | Sys_error _ -> ())
    | None -> ()
  in
  (* Both listeners bind before serving starts: a misconfigured
     --metrics-addr is a startup error, not a silently absent scrape
     endpoint. *)
  let bind_both () =
    let which = ref cfg.addr in
    try
      let fd = listen_on cfg.addr in
      match cfg.metrics_addr with
      | None -> Ok (fd, None)
      | Some a -> (
          which := a;
          match listen_on a with
          | mfd -> Ok (fd, Some mfd)
          | exception e ->
              (try Unix.close fd with Unix.Unix_error _ -> ());
              raise e)
    with
    | Unix.Unix_error (e, fn, _) ->
        Error
          (Fmt.str "cannot listen on %a: %s (%s)" pp_addr !which
             (Unix.error_message e) fn)
    | Not_found -> Error (Fmt.str "cannot resolve %a" pp_addr !which)
  in
  match bind_both () with
  | Error msg ->
      restore_pipe ();
      Error msg
  | Ok (listen_fd, metrics_fd) ->
      let pipe_r, pipe_w = Unix.pipe () in
      Unix.set_nonblock pipe_r;
      Unix.set_nonblock pipe_w;
      let wake_byte = Bytes.make 1 '!' in
      let wakeup () =
        try ignore (Unix.single_write pipe_w wake_byte 0 1)
        with Unix.Unix_error _ -> ()
      in
      (* SIGTERM/SIGINT route through the same graceful path as the
         shutdown wire op: the handler only flips a flag and nudges the
         self-pipe; the loop does the rest. *)
      let sig_requested = ref false in
      (* SIGUSR1 = "dump the flight recorder": the handler only flips a
         flag; the loop writes the dump between iterations. *)
      let usr1_requested = ref false in
      let install s flag =
        try
          Some
            ( s,
              Sys.signal s
                (Sys.Signal_handle
                   (fun _ ->
                     flag := true;
                     wakeup ())) )
        with Invalid_argument _ | Sys_error _ -> None
      in
      let prev_sigs =
        if cfg.signals then
          List.filter_map Fun.id
            [
              install Sys.sigterm sig_requested;
              install Sys.sigint sig_requested;
              install Sys.sigusr1 usr1_requested;
            ]
        else []
      in
      let restore_sigs () =
        List.iter
          (fun (s, h) ->
            try Sys.set_signal s h
            with Invalid_argument _ | Sys_error _ -> ())
          prev_sigs
      in
      let root =
        match cfg.trace with
        | None -> None
        | Some _ ->
            let c = Obs.Trace.create () in
            Obs.Trace.install c;
            Some c
      in
      let service =
        Parallel.Service.create ~jobs:cfg.jobs ~wakeup ~clock:Obs.Clock.now ()
      in
      let jobs = Parallel.Service.jobs service in
      let st =
        {
          cfg;
          service;
          tracing = Option.is_some root;
          sessions = Hashtbl.create 31;
          conns = Hashtbl.create 31;
          pending = Hashtbl.create 31;
          replaying = Hashtbl.create 7;
          worker_stats = Array.init jobs (fun _ -> S.create ());
          worker_msnaps = Array.make jobs None;
          served_by_worker = Array.make jobs 0;
          flight =
            (let f = Telemetry.create ~capacity:cfg.flight_capacity () in
             Telemetry.set_enabled f cfg.telemetry;
             f);
          http = Hashtbl.create 7;
          next_hid = 0;
          start_s = Obs.Clock.now ();
          journal = None;
          next_sid = 0;
          next_conn_id = 0;
          next_token = 0;
          rr = 0;
          served = 0;
          errors = 0;
          shutting = false;
          shut_deadline = 0.0;
        }
      in
      let drain_pipe () =
        let b = Bytes.create 256 in
        let rec go () =
          match Unix.read pipe_r b 0 (Bytes.length b) with
          | 0 -> ()
          | _ -> go ()
          | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
            ->
              ()
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
        in
        go ()
      in
      (* Startup recovery: replay the journal's live sessions before
         accepting the first connection, so a restarted daemon answers
         exactly like the one that died. *)
      let recover () =
        match cfg.journal with
        | None -> ()
        | Some dir ->
            let entries, status = Journal.load dir in
            (match status with
            | `Ok -> ()
            | `Corrupt msg ->
                if cfg.log then
                  Obs.Log.warn "journal entry skipped"
                    ~fields:[ Obs.Log.Str ("error", msg) ]);
            st.journal <- Some (Journal.open_ dir);
            st.next_sid <- Journal.max_sid entries + 1;
            let live = Journal.live_sessions entries in
            let g = Obs.Metrics.global () in
            Obs.Metrics.set_count g "serve.recovery.sessions" (List.length live);
            Obs.Metrics.set_count g "serve.recovery.entries"
              (List.fold_left (fun n (_, _, k) -> n + k) 0 live);
            if live <> [] then
              Obs.Trace.with_span
                ~attrs:
                  [
                    ("sessions", Obs.Trace.Int (List.length live));
                    ("entries", Obs.Trace.Int (List.length entries));
                  ]
                "serve.recovery"
                (fun () ->
                  List.iter
                    (fun (sid, (ontology, data, query, max_extra), _) ->
                      let worker = next_worker st in
                      submit_replay st ~sid ~worker ~ontology ~data ~query
                        ~max_extra)
                    live;
                  while Hashtbl.length st.replaying > 0 do
                    List.iter (handle_completion st)
                      (Parallel.Service.drain service);
                    if Hashtbl.length st.replaying > 0 then
                      match Unix.select [ pipe_r ] [] [] 0.05 with
                      | rs, _, _ -> if rs <> [] then drain_pipe ()
                      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
                  done);
            if cfg.log then
              Obs.Log.info "sessions recovered from journal"
                ~fields:
                  [
                    Obs.Log.Int ("sessions", Hashtbl.length st.sessions);
                    Obs.Log.Str ("journal", dir);
                  ]
      in
      if cfg.log then
        Obs.Log.info "listening"
          ~fields:
            ([
               Obs.Log.Str ("addr", Fmt.str "%a" pp_addr cfg.addr);
               Obs.Log.Int ("workers", jobs);
             ]
            @
            match cfg.metrics_addr with
            | Some a ->
                [ Obs.Log.Str ("metrics_addr", Fmt.str "%a" pp_addr a) ]
            | None -> []);
      (* The flight dump: to --flight-dump when set (write-whole-file;
         a dump is small and rare), else one JSON line on stderr. *)
      let dump_flight () =
        let doc = P.Json.render (telemetry_json st) ^ "\n" in
        match cfg.flight_dump with
        | Some path -> (
            try
              let oc = open_out path in
              output_string oc doc;
              close_out oc;
              if cfg.log then
                Obs.Log.info "flight recorder dumped"
                  ~fields:[ Obs.Log.Str ("path", path) ]
            with Sys_error m ->
              if cfg.log then
                Obs.Log.error "flight dump failed"
                  ~fields:[ Obs.Log.Str ("error", m) ])
        | None ->
            output_string stderr doc;
            flush stderr
      in
      let rec accept_http mfd =
        match Unix.accept mfd with
        | cfd, _ ->
            Unix.set_nonblock cfd;
            let hid = st.next_hid in
            st.next_hid <- hid + 1;
            Hashtbl.replace st.http hid
              {
                hid;
                hfd = cfd;
                hin = Buffer.create 256;
                hout = "";
                houtpos = 0;
              };
            accept_http mfd
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
          ->
            ()
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> accept_http mfd
        | exception Unix.Unix_error _ -> ()
      in
      let rec accept_all () =
        match Unix.accept listen_fd with
        | cfd, _ -> (
            match
              match cfg.chaos with
              | Some ch -> Chaos.on_accept ch
              | None -> `Accept
            with
            | `Drop ->
                (try Unix.close cfd with Unix.Unix_error _ -> ());
                accept_all ()
            | `Accept ->
                Unix.set_nonblock cfd;
                let id = st.next_conn_id in
                st.next_conn_id <- id + 1;
                Hashtbl.replace st.conns id
                  {
                    id;
                    fd = cfd;
                    inbuf = Buffer.create 512;
                    stash = Buffer.create 0;
                    discarding = false;
                    out = "";
                    outpos = 0;
                  };
                accept_all ())
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
          ->
            ()
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> accept_all ()
        | exception Unix.Unix_error _ -> ()
      in
      let rec loop () =
        List.iter (handle_completion st) (Parallel.Service.drain service);
        supervise st;
        if !sig_requested && not st.shutting then begin
          st.shutting <- true;
          st.shut_deadline <- Obs.Clock.now () +. cfg.shutdown_grace;
          if cfg.log then Obs.Log.info "signal received, draining"
        end;
        if !usr1_requested then begin
          usr1_requested := false;
          dump_flight ()
        end;
        if any_stash st then
          List.iter (fun c -> deliver_stash st c) (all_conns st);
        let drained =
          st.shutting
          && Parallel.Service.in_flight service = 0
          && no_pending_out st
        in
        let expired = st.shutting && Obs.Clock.now () > st.shut_deadline in
        if not (drained || expired) then begin
          let conns = all_conns st in
          let https = all_http st in
          let rds =
            (pipe_r :: (if st.shutting then [] else [ listen_fd ]))
            @ (match metrics_fd with
              | Some mfd when not st.shutting -> [ mfd ]
              | _ -> [])
            @ List.map (fun c -> c.fd) conns
            @ List.map (fun h -> h.hfd) https
          in
          let wrs =
            List.filter_map
              (fun c -> if pending_out c then Some c.fd else None)
              conns
            @ List.filter_map
                (fun h -> if http_pending_out h then Some h.hfd else None)
                https
          in
          let timeout =
            if any_stash st then 0.0
            else
              match cfg.supervise with
              | Some d when Parallel.Service.in_flight service > 0 ->
                  Float.min 0.5 (Float.max (d /. 4.) 0.005)
              | _ -> 0.5
          in
          (match Unix.select rds wrs [] timeout with
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
          | rs, ws, _ ->
              if List.mem pipe_r rs then drain_pipe ();
              if (not st.shutting) && List.mem listen_fd rs then accept_all ();
              (match metrics_fd with
              | Some mfd when (not st.shutting) && List.mem mfd rs ->
                  accept_http mfd
              | _ -> ());
              List.iter
                (fun c ->
                  if Hashtbl.mem st.conns c.id && List.mem c.fd ws then
                    try_flush st c)
                conns;
              List.iter
                (fun c ->
                  if Hashtbl.mem st.conns c.id && List.mem c.fd rs then
                    handle_readable st c)
                conns;
              List.iter
                (fun h ->
                  if Hashtbl.mem st.http h.hid && List.mem h.hfd ws then
                    try_flush_http st h)
                https;
              List.iter
                (fun h ->
                  if Hashtbl.mem st.http h.hid && List.mem h.hfd rs then
                    handle_http_readable st h)
                https);
          loop ()
        end
      in
      let result =
        match
          recover ();
          ready ();
          loop ()
        with
        | () -> Ok ()
        | exception e -> Error (Printexc.to_string e)
      in
      (* A worker still busy here is wedged (a drained exit implies an
         idle service): abandon it so shutdown's joins cannot hang. *)
      for w = 0 to jobs - 1 do
        if Parallel.Service.busy_since service ~worker:w <> None then
          ignore (Parallel.Service.replace service ~worker:w)
      done;
      (try Parallel.Service.shutdown service with _ -> ());
      (match st.journal with Some j -> Journal.close j | None -> ());
      (match cfg.chaos with
      | Some ch ->
          let torn, dropr, short, stall, dropa, poisoned = Chaos.injected ch in
          let g = Obs.Metrics.global () in
          Obs.Metrics.set_count g "serve.chaos.torn_reads" torn;
          Obs.Metrics.set_count g "serve.chaos.drop_reads" dropr;
          Obs.Metrics.set_count g "serve.chaos.short_writes" short;
          Obs.Metrics.set_count g "serve.chaos.stall_writes" stall;
          Obs.Metrics.set_count g "serve.chaos.drop_accepts" dropa;
          Obs.Metrics.set_count g "serve.chaos.poisoned" poisoned
      | None -> ());
      List.iter (fun c -> close_conn st c) (all_conns st);
      List.iter (fun h -> close_http st h) (all_http st);
      (try Unix.close listen_fd with Unix.Unix_error _ -> ());
      (match metrics_fd with
      | Some mfd -> ( try Unix.close mfd with Unix.Unix_error _ -> ())
      | None -> ());
      (try Unix.close pipe_r with Unix.Unix_error _ -> ());
      (try Unix.close pipe_w with Unix.Unix_error _ -> ());
      let unlink_path = function
        | Unix_path p -> (
            try Unix.unlink p with Unix.Unix_error _ | Sys_error _ -> ())
        | Tcp _ -> ()
      in
      unlink_path cfg.addr;
      Option.iter unlink_path cfg.metrics_addr;
      let result =
        match (root, cfg.trace) with
        | Some c, Some (fmt, path) -> (
            ignore (Obs.Trace.uninstall ());
            match Obs.Export.to_file fmt c path with
            | () -> result
            | exception Sys_error m -> (
                match result with Ok () -> Error m | Error _ -> result))
        | Some _, None | None, _ -> result
      in
      if cfg.log then Obs.Log.info "shut down";
      restore_sigs ();
      restore_pipe ();
      result
