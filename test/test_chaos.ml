(* The self-healing serving layer: the session journal (Omqd.Journal),
   worker supervision (Parallel.Service.replace), and faults at the
   socket boundary.

   The load-bearing assertions: after any fault — torn frames, short
   writes, dropped connections, a wedged worker, a kill of the whole
   daemon — every *acknowledged* session answers byte-identically to
   the sequential evaluation, and nothing that was never acked is
   resurrected. Socket and worker faults are event sequences fed to
   Omqd.Core through the simulated shell (sim.ml): a torn read is a
   split input, a dropped read or accept a hangup, a short or stalled
   write a small or zero flush, a poisoned job a completion that never
   arrives while the clock passes the supervision deadline. Framing,
   journal restarts and signals also run against a live daemon. No test
   sleeps as synchronisation: clients block on typed responses, and the
   only polling loops wait on an observable predicate with a
   deadline. *)

module P = Omq.Protocol
module Journal = Omqd.Journal

let check_str = Alcotest.(check string)
let check_int = Alcotest.(check int)

let onto = Sim.onto
let data = Sim.data
let query = Sim.query
let open_req = Sim.open_req
let eval_req = Sim.eval_req

(* The sequential ground truth, rendered through the same codec the
   daemon uses — recovered and fault-ridden responses must equal this
   byte for byte. *)
let direct_eval = Sim.direct_eval

(* ---------------------------------------------------------------- *)
(* Harness: daemon on a thread *)

let counter = ref 0

let fresh_name tag =
  incr counter;
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "omqd-chaos-%s-%d-%d" tag (Unix.getpid ()) !counter)

let with_daemon ?journal ?(jobs = 2) f =
  let path = fresh_name "sock" in
  let addr = Omqd.Daemon.Unix_path path in
  let cfg = Omqd.Daemon.config ~addr ~jobs ?journal () in
  let result = ref (Ok ()) in
  let th = Thread.create (fun () -> result := Omqd.Daemon.run cfg) () in
  let out = try Ok (f addr) with e -> Error e in
  (match Omqd.Client.connect ~attempts:3 ~base_delay:0.005 addr with
  | Error _ -> ()
  | Ok c ->
      ignore (Omqd.Client.call c P.Shutdown);
      Omqd.Client.close c);
  Thread.join th;
  (match !result with
  | Ok () -> ()
  | Error m -> Alcotest.failf "daemon failed: %s" m);
  match out with Ok v -> v | Error e -> raise e

let connect_exn addr =
  match Omqd.Client.connect addr with
  | Ok c -> c
  | Error m -> Alcotest.failf "connect: %s" m

let call_exn c req =
  match Omqd.Client.call c req with
  | Ok r -> r
  | Error m -> Alcotest.failf "call: %s" m

let open_exn c =
  match call_exn c open_req with
  | P.Opened { session } -> session
  | r -> Alcotest.failf "open failed: %s" (P.render_response r)

(* ---------------------------------------------------------------- *)
(* Parallel.Service supervision primitives, tested directly *)

let test_service_replace () =
  let svc = Parallel.Service.create ~jobs:2 ~wakeup:ignore ~clock:Obs.Clock.now () in
  let m = Mutex.create () and cv = Condition.create () in
  let release = ref false in
  let wedge () =
    Mutex.lock m;
    while not !release do
      Condition.wait cv m
    done;
    Mutex.unlock m;
    "late"
  in
  Parallel.Service.submit svc ~worker:0 wedge;
  (* wait until the wedged job has actually started *)
  let deadline = Obs.Clock.now () +. 5.0 in
  let rec wait_busy () =
    match Parallel.Service.busy_since svc ~worker:0 with
    | Some _ -> ()
    | None ->
        if Obs.Clock.now () > deadline then
          Alcotest.fail "worker never started its job"
        else begin
          Thread.yield ();
          wait_busy ()
        end
  in
  wait_busy ();
  Parallel.Service.submit svc ~worker:0 (fun () -> "queued1");
  Parallel.Service.submit svc ~worker:0 (fun () -> "queued2");
  check_int "three jobs in flight" 3 (Parallel.Service.in_flight svc);
  let lost = Parallel.Service.replace svc ~worker:0 in
  check_int "one running + two queued lost" 3 lost;
  check_int "in_flight returned to zero" 0 (Parallel.Service.in_flight svc);
  check_int "one replacement recorded" 1 (Parallel.Service.replaced svc);
  (* the fresh domain at index 0 serves new work *)
  Parallel.Service.submit svc ~worker:0 (fun () -> "fresh");
  let got = ref [] in
  let deadline = Obs.Clock.now () +. 5.0 in
  while !got = [] && Obs.Clock.now () < deadline do
    got := Parallel.Service.drain svc;
    if !got = [] then Thread.yield ()
  done;
  Alcotest.(check (list string)) "fresh worker answers" [ "fresh" ] !got;
  (* let the abandoned domain finish: its result must be dropped, not
     enqueued — drain stays empty *)
  Mutex.lock m;
  release := true;
  Condition.broadcast cv;
  Mutex.unlock m;
  Parallel.Service.submit svc ~worker:0 (fun () -> "after");
  let got = ref [] in
  let deadline = Obs.Clock.now () +. 5.0 in
  while !got = [] && Obs.Clock.now () < deadline do
    got := Parallel.Service.drain svc;
    if !got = [] then Thread.yield ()
  done;
  Alcotest.(check (list string)) "abandoned result never surfaces" [ "after" ]
    !got;
  Parallel.Service.shutdown svc

(* ---------------------------------------------------------------- *)
(* Journal unit behaviour *)

let e_open sid = Journal.Open { sid; ontology = onto; data; query; max_extra = 2 }

let test_journal_load_and_compact () =
  (* render/parse roundtrip, including a frame that is not a journal op *)
  let ins = Journal.Insert { sid = 1; facts = "Thumb(u)" } in
  (match Journal.entry_of_line (Journal.render ins) with
  | Ok e -> Alcotest.(check bool) "roundtrip" true (e = ins)
  | Error m -> Alcotest.failf "roundtrip: %s" m);
  (match Journal.entry_of_line "{\"v\":1,\"op\":\"stats\"}" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "stats is not a journal operation");
  let dir = fresh_name "journal" in
  let t = Journal.open_ dir in
  Journal.append t (e_open 1);
  Journal.append t ins;
  Journal.append t (e_open 2);
  Journal.append t (Journal.Close { sid = 2 });
  Journal.close t;
  let entries, status = Journal.load dir in
  Alcotest.(check bool) "clean load" true (status = `Ok);
  check_int "four entries" 4 (List.length entries);
  check_int "max sid" 2 (Journal.max_sid entries);
  (match Journal.live_sessions entries with
  | [ (1, (o, d, q, me), folded) ] ->
      check_str "ontology preserved" onto o;
      (* net-data fold renders canonically: one fact per line, in
         compare_fact order, no spaces after commas *)
      check_str "data is the union"
        "Hand(h)\nThumb(t)\nThumb(u)\nhasFinger(h,t)" d;
      check_str "query preserved" query q;
      check_int "max_extra preserved" 2 me;
      check_int "two entries folded" 2 folded
  | l -> Alcotest.failf "expected exactly session 1 live, got %d" (List.length l));
  (* a torn final line — crash mid-append — is skipped silently *)
  let oc =
    open_out_gen [ Open_append ] 0o644 (Filename.concat dir "omq.journal")
  in
  output_string oc "{\"v\":1,\"op\":\"insert_fa";
  close_out oc;
  let entries', status' = Journal.load dir in
  Alcotest.(check bool) "torn tail skipped, still ok" true (status' = `Ok);
  check_int "same four entries" 4 (List.length entries');
  (* compaction: one open per live session, atomically; the handle
     stays usable *)
  let t = Journal.open_ dir in
  let folded =
    List.map
      (fun (sid, (ontology, data, query, max_extra), _) ->
        Journal.Open { sid; ontology; data; query; max_extra })
      (Journal.live_sessions entries')
  in
  Journal.compact t folded;
  let after, status'' = Journal.load dir in
  Alcotest.(check bool) "compacted load ok" true (status'' = `Ok);
  check_int "one entry per live session" 1 (List.length after);
  Journal.append t (Journal.Insert { sid = 1; facts = "Thumb(v)" });
  Journal.close t;
  let final, _ = Journal.load dir in
  check_int "append after compact lands" 2 (List.length final)

(* Journal replay equivalence, as a property: for any valid history of
   opens / inserts / retracts / closes, folding the journal yields
   exactly the model's live sessions — net fact sets in canonical
   rendering — in open order. *)

(* The model's view of a fact set, rendered the way live_sessions does:
   parse and re-render canonically (one fact per line, compare_fact
   order). *)
let canon facts =
  match
    Structure.Parse.instance_of_string_result (String.concat "\n" facts)
  with
  | Error m -> Alcotest.failf "model facts unparsable: %s" m
  | Ok i ->
      Structure.Instance.facts i
      |> List.map (fun (f : Structure.Instance.fact) ->
             Printf.sprintf "%s(%s)" f.rel
               (String.concat ","
                  (List.map Structure.Element.to_string f.args)))
      |> String.concat "\n"

let replay_equivalence =
  QCheck.Test.make ~count:200 ~name:"journal replay equals model"
    QCheck.(list (int_range 0 11))
    (fun script ->
      let next = ref 1 in
      (* (sid, net facts, entries folded), open order reversed *)
      let live = ref [] in
      let entries = ref [] in
      let update sid f =
        live :=
          List.map
            (fun (s, fs, n) -> if s = sid then (s, f fs, n + 1) else (s, fs, n))
            !live
      in
      List.iter
        (fun n ->
          let nlive = List.length !live in
          if nlive = 0 || n mod 4 = 0 then begin
            let sid = !next in
            incr next;
            let d = Printf.sprintf "D(d%d)" sid in
            live := (sid, [ d ], 1) :: !live;
            entries :=
              Journal.Open
                { sid; ontology = "o"; data = d; query = "q"; max_extra = 1 }
              :: !entries
          end
          else if n mod 4 = 1 then begin
            let sid, fs, _ = List.nth !live (n mod nlive) in
            let f = Printf.sprintf "F(f%d_%d)" sid (List.length fs) in
            update sid (fun fs' -> f :: fs');
            ignore fs;
            entries := Journal.Insert { sid; facts = f } :: !entries
          end
          else if n mod 4 = 2 then begin
            (* retract one present fact, or one that was never there —
               both must fold correctly (absent facts are no-ops) *)
            let sid, fs, _ = List.nth !live (n mod nlive) in
            let f =
              match fs with
              | f :: _ when n / 4 mod 2 = 0 -> f
              | _ -> "Absent(nobody)"
            in
            update sid (List.filter (fun f' -> f' <> f));
            entries := Journal.Retract { sid; facts = f } :: !entries
          end
          else begin
            let sid, _, _ = List.nth !live (n mod nlive) in
            live := List.filter (fun (s, _, _) -> s <> sid) !live;
            entries := Journal.Close { sid } :: !entries
          end)
        script;
      let expected =
        List.rev_map (fun (sid, fs, n) -> (sid, canon fs, n)) !live
      in
      let got =
        List.map
          (fun (sid, (_, d, _, _), folded) -> (sid, d, folded))
          (Journal.live_sessions (List.rev !entries))
      in
      got = expected)

(* ---------------------------------------------------------------- *)
(* Framing under adversity *)

let test_byte_at_a_time () =
  with_daemon @@ fun addr ->
  let fd = Helpers.raw_connect addr in
  let buf = Buffer.create 256 in
  let frame = P.render_request ~id:1 open_req ^ "\n" in
  String.iter (fun ch -> Helpers.write_all fd (String.make 1 ch)) frame;
  (match P.parse_response (Helpers.read_line fd buf) with
  | Ok (Some 1, P.Opened { session }) ->
      Helpers.write_all fd (P.render_request ~id:2 (eval_req session) ^ "\n");
      (match P.parse_response (Helpers.read_line fd buf) with
      | Ok (Some 2, resp) ->
          check_str "byte-dripped open still answers identically"
            (P.render_response (direct_eval ()))
            (P.render_response resp)
      | _ -> Alcotest.fail "bad eval response")
  | _ -> Alcotest.fail "byte-dripped open was not answered");
  Unix.close fd

(* The same invariant as a property: a conversation chopped into
   arbitrary chunks (frames split anywhere, including across requests)
   is reassembled; junk between frames gets a typed rejection and never
   poisons the next frame. One daemon and one already-registered
   session serve every case. *)
let chunked_framing_cases daemon_addr sid =
  QCheck.Test.make ~count:25 ~name:"arbitrary chunking reassembles"
    QCheck.(pair (list_of_size Gen.(1 -- 8) (int_range 1 40)) bool)
    (fun (cuts, with_junk) ->
      let fd = Helpers.raw_connect daemon_addr in
      let buf = Buffer.create 256 in
      let stream =
        (if with_junk then "not json at all\n" else "")
        ^ P.render_request ~id:1 (eval_req sid)
        ^ "\n"
        ^ P.render_request ~id:2 P.Stats
        ^ "\n"
      in
      (* cut positions derived from the generated list; any remainder is
         written in one last piece *)
      let pos = ref 0 in
      List.iter
        (fun k ->
          let n = min k (String.length stream - !pos) in
          if n > 0 then begin
            Helpers.write_all fd (String.sub stream !pos n);
            pos := !pos + n
          end)
        cuts;
      if !pos < String.length stream then
        Helpers.write_all fd (String.sub stream !pos (String.length stream - !pos));
      (* the eval is answered from a worker, stats inline: responses to
         pipelined requests may interleave — match them up by id *)
      let junk_rejected = ref (not with_junk) in
      let by_id = Hashtbl.create 4 in
      let expected_lines = 2 + if with_junk then 1 else 0 in
      for _ = 1 to expected_lines do
        match P.parse_response (Helpers.read_line fd buf) with
        | Ok (None, P.Rejected { kind = P.Bad_frame; _ }) ->
            junk_rejected := true
        | Ok (Some id, resp) -> Hashtbl.replace by_id id resp
        | _ -> ()
      done;
      let ok1 =
        match Hashtbl.find_opt by_id 1 with
        | Some resp ->
            P.render_response resp = P.render_response (direct_eval ())
        | None -> false
      in
      let ok2 =
        match Hashtbl.find_opt by_id 2 with
        | Some (P.Server_stats _) -> true
        | _ -> false
      in
      Unix.close fd;
      !junk_rejected && ok1 && ok2)

let test_chunked_framing () =
  with_daemon ~jobs:1 @@ fun addr ->
  let c = connect_exn addr in
  let sid = open_exn c in
  QCheck.Test.check_exn (chunked_framing_cases addr sid);
  Omqd.Client.close c

(* ---------------------------------------------------------------- *)
(* Crash recovery from the journal *)

let test_journal_restart () =
  let dir = fresh_name "journal" in
  (* first life: two sessions, an acked insert, an acked
     insert-then-retract pair, then exit *)
  let s1, s2 =
    with_daemon ~journal:dir @@ fun addr ->
    let c = connect_exn addr in
    let s1 = open_exn c in
    let s2 = open_exn c in
    (match call_exn c (P.Insert_facts { session = s1; facts = "Thumb(u)" }) with
    | P.Inserted _ -> ()
    | r -> Alcotest.failf "insert failed: %s" (P.render_response r));
    (match call_exn c (P.Insert_facts { session = s2; facts = "Thumb(w)" }) with
    | P.Inserted _ -> ()
    | r -> Alcotest.failf "insert failed: %s" (P.render_response r));
    (match call_exn c (P.Retract_facts { session = s2; facts = "Thumb(w)" }) with
    | P.Retracted _ -> ()
    | r -> Alcotest.failf "retract failed: %s" (P.render_response r));
    Omqd.Client.close c;
    (s1, s2)
  in
  let with_insert = P.render_response (direct_eval ~extra:"Thumb(u)" ()) in
  let plain = P.render_response (direct_eval ()) in
  (* second life: every acked session answers identically; the retract
     survived replay (s2 nets out to the original data); fresh ids
     never collide with replayed ones; a close is journalled too *)
  with_daemon ~journal:dir (fun addr ->
      let c = connect_exn addr in
      check_str "replayed session kept its acked insert" with_insert
        (P.render_response (call_exn c (eval_req s1)));
      check_str "replayed session kept its acked retract" plain
        (P.render_response (call_exn c (eval_req s2)));
      let s3 = open_exn c in
      Alcotest.(check bool) "fresh sid past every journalled one" true
        (s3 > s1 && s3 > s2);
      (match call_exn c (P.Close_session { session = s2 }) with
      | P.Closed _ -> ()
      | r -> Alcotest.failf "close failed: %s" (P.render_response r));
      Omqd.Client.close c);
  (* third life: the close held; the survivor still answers *)
  with_daemon ~journal:dir (fun addr ->
      let c = connect_exn addr in
      (match call_exn c (eval_req s2) with
      | P.Rejected { kind = P.Unknown_session; _ } -> ()
      | r ->
          Alcotest.failf "closed session resurrected: %s"
            (P.render_response r));
      check_str "survivor still answers identically" with_insert
        (P.render_response (call_exn c (eval_req s1)));
      Omqd.Client.close c)

(* A torn final journal line (kill -9 mid-append) must not block
   recovery and must not resurrect the unacked operation. *)
let test_torn_journal_tail () =
  let dir = fresh_name "journal" in
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let oc = open_out (Filename.concat dir "omq.journal") in
  output_string oc (Journal.render (e_open 1) ^ "\n");
  output_string oc
    (Journal.render (Journal.Insert { sid = 1; facts = "Thumb(u)" }) ^ "\n");
  (* the append the crash interrupted: never fsync'd, never acked *)
  output_string oc "{\"v\":1,\"id\":1,\"op\":\"insert_fa";
  close_out oc;
  with_daemon ~journal:dir @@ fun addr ->
  let c = connect_exn addr in
  check_str "acked prefix replayed, torn tail dropped"
    (P.render_response (direct_eval ~extra:"Thumb(u)" ()))
    (P.render_response (call_exn c (eval_req 1)));
  Omqd.Client.close c

(* ---------------------------------------------------------------- *)
(* Socket and worker faults, as event sequences over the core *)

let render = P.render_response

(* No action writes to a connection after the core closed it. *)
let check_no_write_after_close sim =
  let closed = Hashtbl.create 7 in
  List.iter
    (function
      | Sim.Act (Omqd.Core.Close c) -> Hashtbl.replace closed c ()
      | Sim.Act (Omqd.Core.Write (c, _)) when Hashtbl.mem closed c ->
          Alcotest.failf "wrote to conn %d after closing it" c
      | _ -> ())
    (Sim.events sim)

(* Torn reads and short writes: each request reaches the core in seeded
   random pieces, and the socket takes a seeded random share of every
   flush (often nothing, until it is writable again). Every answer stays
   byte-identical. *)
let test_torn_and_short () =
  let expected = render (direct_eval ~extra:"Thumb(u)" ()) in
  let torn = ref 0 and short = ref 0 in
  for seed = 1 to 10 do
    let rng = Random.State.make [| seed |] in
    let sim = Sim.create ~jobs:2 () in
    sim.Sim.take <-
      (fun _ n ->
        let k = Random.State.int rng (n + 1) in
        if k < n then incr short;
        k);
    Sim.connect sim 0;
    let call id req =
      let f = Sim.frame ~id req in
      let rec pieces pos =
        if pos < String.length f then begin
          let k = 1 + Random.State.int rng (String.length f - pos) in
          if k < String.length f then incr torn;
          Sim.send sim 0 (String.sub f pos k);
          pieces (pos + k)
        end
      in
      pieces 0;
      Sim.settle sim;
      while Sim.unsent sim 0 > 0 do
        Sim.writable sim
      done;
      Sim.response sim 0 id
    in
    (match call 1 open_req with
    | P.Opened { session = 1 } -> ()
    | r -> Alcotest.failf "open failed: %s" (render r));
    (match call 2 (P.Insert_facts { session = 1; facts = "Thumb(u)" }) with
    | P.Inserted _ -> ()
    | r -> Alcotest.failf "insert failed: %s" (render r));
    for id = 3 to 10 do
      check_str "answer identical under torn frames and short writes" expected
        (render (call id (eval_req 1)))
    done
  done;
  Alcotest.(check bool) "frames were torn and writes cut short" true
    (!torn > 0 && !short > 0)

(* Dropped accepts and reads (a hangup right after connecting, mid-frame
   or with a job in flight) end one connection each, never the daemon:
   the survivors' answers stay identical and nothing is written to a
   dropped connection. *)
let test_drops_survived () =
  let expected = render (direct_eval ()) in
  let rng = Random.State.make [| 42 |] in
  let sim = Sim.create ~jobs:2 () in
  let full = ref 0 and dropped = ref 0 in
  let f = Sim.frame ~id:1 open_req in
  for c = 0 to 19 do
    Sim.connect sim c;
    match Random.State.int rng 4 with
    | 0 ->
        Sim.hangup sim c;
        incr dropped
    | 1 ->
        Sim.send sim c (String.sub f 0 (String.length f / 2));
        Sim.hangup sim c;
        incr dropped
    | 2 ->
        Sim.send sim c f;
        Sim.hangup sim c;
        Sim.settle sim;
        incr dropped
    | _ -> (
        Sim.send sim c f;
        Sim.settle sim;
        match Sim.response sim c 1 with
        | P.Opened { session } ->
            Sim.send sim c (Sim.frame ~id:2 (eval_req session));
            Sim.settle sim;
            check_str "delivered answer identical" expected
              (render (Sim.response sim c 2));
            incr full
        | r -> Alcotest.failf "open failed: %s" (render r))
  done;
  Alcotest.(check bool) "some rounds completed, some dropped" true
    (!full >= 1 && !dropped >= 1);
  check_no_write_after_close sim;
  Sim.connect sim 99;
  Sim.send sim 99 (Sim.frame ~id:1 P.Stats);
  match Sim.response sim 99 1 with
  | P.Server_stats _ -> ()
  | r -> Alcotest.failf "daemon stopped serving: %s" (render r)

(* Worker 0 wedges on the first session's eval: its completion never
   arrives while the clock passes the supervision deadline. The worker
   is quarantined, the eval fails with the retryable worker_lost, a
   retry during the replay is turned away retryably, and once the
   replay lands the retry answers identically. The session pinned to
   the healthy worker is untouched throughout, and the wedged job's late
   result is dropped. *)
let test_poisoned_worker_replayed () =
  let expected = render (direct_eval ()) in
  let sim = Sim.create ~jobs:2 ~supervise:0.2 () in
  Sim.connect sim 0;
  Sim.connect sim 1;
  Sim.send sim 0 (Sim.frame ~id:1 open_req ^ Sim.frame ~id:2 open_req);
  Sim.settle sim;
  Sim.send sim 0 (Sim.frame ~id:3 (eval_req 1));
  Sim.send sim 1 (Sim.frame ~id:4 (eval_req 2));
  Sim.complete sim 1;
  check_str "healthy worker's session answers while the other wedges"
    expected
    (render (Sim.response sim 1 4));
  Sim.tick sim 0.1;
  check_int "not quarantined before the deadline" 2
    (List.length (Sim.responses sim 0));
  Sim.tick sim 0.2;
  (match Sim.response sim 0 3 with
  | P.Rejected { kind = P.Worker_lost; _ } -> ()
  | r -> Alcotest.failf "expected worker_lost: %s" (render r));
  Sim.send sim 0 (Sim.frame ~id:5 (eval_req 1));
  (match Sim.response sim 0 5 with
  | P.Rejected { kind; _ } when P.retryable kind -> ()
  | r -> Alcotest.failf "expected a retryable rejection: %s" (render r));
  Sim.complete sim 0;
  Sim.send sim 0 (Sim.frame ~id:6 (eval_req 1));
  Sim.complete sim 0;
  check_str "retried eval lands on the replayed session identically" expected
    (render (Sim.response sim 0 6));
  check_int "the wedged job's late result is dropped" 0
    (List.length (Sim.complete_lost sim))

(* Shed + supervision, pipelined on one connection: eval 2 wedges and
   holds the only in-flight slot, so eval 3 is shed with the typed,
   retryable [overloaded] and never submitted; supervision then fails
   eval 2 with [worker_lost]; a retry during the replay is turned away,
   and the next one gets the byte-identical answer. *)
let test_overload_shed_and_worker_lost () =
  let sim = Sim.create ~jobs:1 ~max_inflight:1 ~supervise:0.2 () in
  Sim.connect sim 0;
  Sim.send sim 0 (Sim.frame ~id:1 open_req);
  Sim.settle sim;
  Sim.send sim 0 (Sim.frame ~id:2 (eval_req 1) ^ Sim.frame ~id:3 (eval_req 1));
  check_int "the shed eval was never submitted" 1
    (Omqd.Core.in_flight sim.Sim.core);
  Sim.tick sim 0.3;
  Sim.send sim 0 (Sim.frame ~id:4 (eval_req 1));
  Sim.complete sim 0;
  Sim.send sim 0 (Sim.frame ~id:5 (eval_req 1));
  Sim.complete sim 0;
  match Sim.responses sim 0 with
  | [
   (Some 1, P.Opened _);
   (Some 3, P.Rejected { kind = P.Overloaded; _ });
   (Some 2, P.Rejected { kind = P.Worker_lost; _ });
   (Some 4, P.Rejected { kind = P.Worker_lost; _ });
   (Some 5, resp);
  ] ->
      Alcotest.(check bool) "both rejections are retryable" true
        (P.retryable P.Overloaded && P.retryable P.Worker_lost);
      check_str "post-recovery answer byte-identical" (render (direct_eval ()))
        (render resp)
  | rs ->
      Alcotest.failf "unexpected responses: %s"
        (String.concat "; " (List.map (fun (_, r) -> render r) rs))

(* A reader that never drains (every flush takes 0 bytes) trips the
   bounded output buffer and is disconnected; its session stays live.
   Shutdown then waits for a wedged job only until the grace passes. *)
let test_slow_reader_disconnected () =
  let sim = Sim.create ~jobs:1 ~max_outbuf:16 ~shutdown_grace:0.2 () in
  sim.Sim.take <- (fun c n -> if c = 0 then 0 else n);
  Sim.connect sim 0;
  Sim.send sim 0 (Sim.frame ~id:1 open_req);
  Sim.settle sim;
  Alcotest.(check bool) "stalled reader disconnected" true
    (Hashtbl.mem sim.Sim.closed 0);
  check_int "nothing delivered to it" 0 (List.length (Sim.responses sim 0));
  check_int "its session stays live" 1
    (List.length (Omqd.Core.live sim.Sim.core));
  Sim.connect sim 1;
  Sim.send sim 1 (Sim.frame ~id:1 (eval_req 1) ^ Sim.frame ~id:2 P.Shutdown);
  Sim.tick sim 0.1;
  Alcotest.(check (list bool)) "no stop while the eval runs" [] sim.Sim.stops;
  Sim.tick sim 0.2;
  Alcotest.(check (list bool)) "stop once the grace passed" [ true ]
    sim.Sim.stops

(* SIGTERM routes through the graceful path: in-flight work answered,
   run returns Ok. *)
let test_sigterm_graceful () =
  let path = fresh_name "sock" in
  let addr = Omqd.Daemon.Unix_path path in
  let cfg = Omqd.Daemon.config ~addr ~jobs:1 ~signals:true () in
  let result = ref (Ok ()) in
  let th = Thread.create (fun () -> result := Omqd.Daemon.run cfg) () in
  let c = connect_exn addr in
  let sid = open_exn c in
  check_str "served before the signal"
    (P.render_response (direct_eval ()))
    (P.render_response (call_exn c (eval_req sid)));
  Unix.kill (Unix.getpid ()) Sys.sigterm;
  Thread.join th;
  Omqd.Client.close c;
  match !result with
  | Ok () -> ()
  | Error m -> Alcotest.failf "sigterm was not graceful: %s" m

let suite =
  [
    Alcotest.test_case "service replace quarantines a wedged worker" `Quick
      test_service_replace;
    Alcotest.test_case "journal load, torn tail, compaction" `Quick
      test_journal_load_and_compact;
    QCheck_alcotest.to_alcotest replay_equivalence;
    Alcotest.test_case "byte-at-a-time framing" `Quick test_byte_at_a_time;
    Alcotest.test_case "adversarial chunked framing" `Quick
      test_chunked_framing;
    Alcotest.test_case "torn reads / short writes leave answers identical"
      `Quick test_torn_and_short;
    Alcotest.test_case "dropped reads and accepts never kill the daemon"
      `Quick test_drops_survived;
    Alcotest.test_case "journal restart resurrects acked sessions" `Quick
      test_journal_restart;
    Alcotest.test_case "torn journal tail is dropped, prefix replayed" `Quick
      test_torn_journal_tail;
    Alcotest.test_case "poisoned worker quarantined, session replayed" `Quick
      test_poisoned_worker_replayed;
    Alcotest.test_case "overload shed and worker_lost, pipelined" `Quick
      test_overload_shed_and_worker_lost;
    Alcotest.test_case "slow reader disconnected at max_outbuf" `Quick
      test_slow_reader_disconnected;
    Alcotest.test_case "SIGTERM drains gracefully" `Quick
      test_sigterm_graceful;
  ]
