(* The serve daemon, driven end to end over a Unix socket. The daemon
   runs on a POSIX thread of the test process (its worker domains are
   its own); clients are real sockets through Omqd.Client.

   The load-bearing assertions: a served answer is byte-identical to
   the direct (sequential) evaluation's rendering; a budget-tripped
   request degrades to a typed partial without disturbing a concurrent
   client; malformed and oversized frames get typed rejections and the
   connection stays usable; shutdown is clean. *)

module P = Omq.Protocol

let check_str = Alcotest.(check string)

let onto = Sim.onto
let data = Sim.data
let query = Sim.query
let open_req = Sim.open_req

let eval_req ?(budget = P.no_budget) session =
  P.Eval { session; budget; want_stats = false }

(* The sequential ground truth, rendered through the same codec the
   daemon uses — server responses must equal this byte for byte. *)
let direct_eval = Sim.direct_eval

(* ---------------------------------------------------------------- *)
(* Daemon-on-a-thread harness *)

let counter = ref 0

let shutdown_daemon addr =
  match Omqd.Client.connect ~attempts:1 addr with
  | Error _ -> ()
  | Ok c ->
      ignore (Omqd.Client.call c P.Shutdown);
      Omqd.Client.close c

let with_daemon ?(caps = P.no_budget)
    ?(max_frame = Omqd.Core.default_max_frame) ?journal ?(jobs = 2) f =
  incr counter;
  let path =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "omqd-test-%d-%d.sock" (Unix.getpid ()) !counter)
  in
  let addr = Omqd.Daemon.Unix_path path in
  let cfg = Omqd.Daemon.config ~addr ~jobs ~caps ~max_frame ?journal () in
  let result = ref (Ok ()) in
  let th = Thread.create (fun () -> result := Omqd.Daemon.run cfg) () in
  let out = try Ok (f addr) with e -> Error e in
  shutdown_daemon addr;
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

let raw_exn c line =
  match Omqd.Client.raw c line with
  | Ok r -> r
  | Error m -> Alcotest.failf "raw: %s" m

let open_exn c =
  match call_exn c open_req with
  | P.Opened { session } -> session
  | r -> Alcotest.failf "open failed: %s" (P.render_response r)

(* ---------------------------------------------------------------- *)

let test_eval_matches_direct () =
  with_daemon @@ fun addr ->
  let c = connect_exn addr in
  let sid = open_exn c in
  let resp = call_exn c (eval_req sid) in
  check_str "served answer equals sequential rendering"
    (P.render_response (direct_eval ()))
    (P.render_response resp);
  (* answers are stable across repeat evals on the warm session *)
  let resp' = call_exn c (eval_req sid) in
  check_str "second eval identical"
    (P.render_response resp)
    (P.render_response resp');
  Omqd.Client.close c

let test_insert_facts () =
  with_daemon @@ fun addr ->
  let c = connect_exn addr in
  let sid = open_exn c in
  (match call_exn c (P.Insert_facts { session = sid; facts = "Thumb(u)" }) with
  | P.Inserted { session; total_facts } ->
      Alcotest.(check int) "same session id" sid session;
      Alcotest.(check int) "union cardinality" 4 total_facts
  | r -> Alcotest.failf "insert failed: %s" (P.render_response r));
  let resp = call_exn c (eval_req sid) in
  check_str "post-insert answers equal direct evaluation of the union"
    (P.render_response (direct_eval ~extra:"Thumb(u)" ()))
    (P.render_response resp);
  Omqd.Client.close c

(* The v2 op: retracting the inserted facts must return the session to
   answers byte-identical to a cold session on the original data. *)
let test_retract_facts () =
  with_daemon @@ fun addr ->
  let c = connect_exn addr in
  let sid = open_exn c in
  (match call_exn c (P.Insert_facts { session = sid; facts = "Thumb(u)" }) with
  | P.Inserted _ -> ()
  | r -> Alcotest.failf "insert failed: %s" (P.render_response r));
  (match call_exn c (P.Retract_facts { session = sid; facts = "Thumb(u)" }) with
  | P.Retracted { session; total_facts } ->
      Alcotest.(check int) "same session id" sid session;
      Alcotest.(check int) "back to the original cardinality" 3 total_facts
  | r -> Alcotest.failf "retract failed: %s" (P.render_response r));
  let resp = call_exn c (eval_req sid) in
  check_str "post-retract answers equal direct evaluation of the original"
    (P.render_response (direct_eval ()))
    (P.render_response resp);
  (* retracting an absent fact is a no-op, not an error *)
  (match
     call_exn c (P.Retract_facts { session = sid; facts = "Thumb(nobody)" })
   with
  | P.Retracted { total_facts; _ } ->
      Alcotest.(check int) "no-op retract keeps cardinality" 3 total_facts
  | r -> Alcotest.failf "no-op retract failed: %s" (P.render_response r));
  (* unknown session gets the typed rejection *)
  (match call_exn c (P.Retract_facts { session = 999; facts = "Thumb(u)" }) with
  | P.Rejected { kind = P.Unknown_session; _ } -> ()
  | r -> Alcotest.failf "expected unknown_session: %s" (P.render_response r));
  Omqd.Client.close c

(* Two genuinely concurrent clients on their own sessions: one keeps
   tripping a fuel budget, the other keeps getting complete answers
   byte-identical to the sequential evaluation. *)
let test_budget_isolation () =
  with_daemon ~jobs:2 @@ fun addr ->
  let expected = P.render_response (direct_eval ()) in
  let rounds = 15 in
  let verdicts = [| "pending"; "pending" |] in
  let tripper () =
    let c = connect_exn addr in
    let sid = open_exn c in
    let budget = { P.no_budget with fuel = Some 1 } in
    let bad = ref None in
    for _ = 1 to rounds do
      match Omqd.Client.call c (eval_req ~budget sid) with
      | Ok (P.Partial { reason = Reasoner.Budget.Fuel; _ }) -> ()
      | Ok r -> bad := Some (P.render_response r)
      | Error m -> bad := Some m
    done;
    Omqd.Client.close c;
    verdicts.(0) <- (match !bad with None -> "ok" | Some m -> "tripper: " ^ m)
  in
  let straight () =
    let c = connect_exn addr in
    let sid = open_exn c in
    let bad = ref None in
    for _ = 1 to rounds do
      match Omqd.Client.call c (eval_req sid) with
      | Ok r when P.render_response r = expected -> ()
      | Ok r -> bad := Some (P.render_response r)
      | Error m -> bad := Some m
    done;
    Omqd.Client.close c;
    verdicts.(1) <- (match !bad with None -> "ok" | Some m -> "straight: " ^ m)
  in
  let t1 = Thread.create tripper () in
  let t2 = Thread.create straight () in
  Thread.join t1;
  Thread.join t2;
  check_str "tripping client always got the typed partial" "ok" verdicts.(0);
  check_str "concurrent client unaffected, answers byte-identical" "ok"
    verdicts.(1)

let test_malformed_then_valid () =
  with_daemon @@ fun addr ->
  let c = connect_exn addr in
  (match P.parse_response (raw_exn c "this is not json") with
  | Ok (None, P.Rejected { kind = P.Bad_frame; _ }) -> ()
  | _ -> Alcotest.fail "expected a bad_frame rejection");
  (match P.parse_response (raw_exn c "{\"v\":99,\"id\":3,\"op\":\"stats\"}") with
  | Ok (Some 3, P.Rejected { kind = P.Bad_version; _ }) -> ()
  | _ -> Alcotest.fail "expected a bad_version rejection echoing the id");
  (* the connection survives both *)
  (match call_exn c P.Stats with
  | P.Server_stats { errors; _ } ->
      Alcotest.(check bool) "errors counted" true (errors >= 2)
  | r -> Alcotest.failf "stats failed: %s" (P.render_response r));
  Omqd.Client.close c

let test_oversized_frame () =
  with_daemon ~max_frame:64 @@ fun addr ->
  let c = connect_exn addr in
  let big =
    Printf.sprintf "{\"v\":1,\"op\":\"classify\",\"ontology\":\"%s\"}"
      (String.make 200 'x')
  in
  (match P.parse_response (raw_exn c big) with
  | Ok (None, P.Rejected { kind = P.Frame_too_large; _ }) -> ()
  | _ -> Alcotest.fail "expected a frame_too_large rejection");
  (* small frames still served on the same connection *)
  (match call_exn c P.Stats with
  | P.Server_stats _ -> ()
  | r -> Alcotest.failf "stats failed: %s" (P.render_response r));
  Omqd.Client.close c

let test_unknown_session_and_bad_input () =
  with_daemon @@ fun addr ->
  let c = connect_exn addr in
  (match call_exn c (eval_req 999) with
  | P.Rejected { kind = P.Unknown_session; _ } -> ()
  | r -> Alcotest.failf "expected unknown_session: %s" (P.render_response r));
  (match
     call_exn c
       (P.Open_session
          { ontology = "Hand <<"; data = ""; query; max_extra = 2 })
   with
  | P.Rejected { kind = P.Bad_request; message } ->
      Alcotest.(check bool) "parse error names the ontology" true
        (String.length message > 0)
  | r -> Alcotest.failf "expected bad_request: %s" (P.render_response r));
  Omqd.Client.close c

let test_close_and_stats () =
  with_daemon @@ fun addr ->
  let c = connect_exn addr in
  let sid = open_exn c in
  (match call_exn c P.Stats with
  | P.Server_stats { sessions; _ } ->
      Alcotest.(check int) "one live session" 1 sessions
  | r -> Alcotest.failf "stats failed: %s" (P.render_response r));
  (match call_exn c (P.Close_session { session = sid }) with
  | P.Closed { session } -> Alcotest.(check int) "closed id" sid session
  | r -> Alcotest.failf "close failed: %s" (P.render_response r));
  (match call_exn c (P.Close_session { session = sid }) with
  | P.Rejected { kind = P.Unknown_session; _ } -> ()
  | r -> Alcotest.failf "double close should fail: %s" (P.render_response r));
  (match call_exn c P.Stats with
  | P.Server_stats { sessions; served; _ } ->
      Alcotest.(check int) "no live sessions" 0 sessions;
      Alcotest.(check bool) "served counts responses" true (served >= 4)
  | r -> Alcotest.failf "stats failed: %s" (P.render_response r));
  Omqd.Client.close c

(* Engine counters ride the wire as Reasoner.Stats.json: an eval with
   want_stats and the server's reasoner totals both carry every key of
   the documented schema, in emission order. *)
let test_eval_stats_shape () =
  with_daemon @@ fun addr ->
  let c = connect_exn addr in
  let sid = open_exn c in
  let keys what = function
    | Some (P.Json.Obj fields) ->
        Alcotest.(check (list string)) what Helpers.stats_keys (List.map fst fields)
    | _ -> Alcotest.failf "%s: not an object" what
  in
  (match call_exn c (P.Eval { session = sid; budget = P.no_budget; want_stats = true }) with
  | P.Evaled { result; stats } ->
      check_str "answers unchanged by want_stats"
        (P.render_response (direct_eval ()))
        (P.render_response (P.Evaled { result; stats = None }));
      keys "eval stats keys" stats
  | r -> Alcotest.failf "eval failed: %s" (P.render_response r));
  (match call_exn c P.Stats with
  | P.Server_stats { reasoner; _ } -> keys "server reasoner keys" (Some reasoner)
  | r -> Alcotest.failf "stats failed: %s" (P.render_response r));
  Omqd.Client.close c

(* The stats op's reasoner totals are exactly the work the served evals
   reported: each eval's want_stats object is the Stats delta of its
   session, and the loop sums those deltas — across both workers, and
   including the fuel trip of a cold session. *)
let test_reasoner_totals_sum_evals () =
  with_daemon @@ fun addr ->
  let c = connect_exn addr in
  let s0 = open_exn c in
  let s1 = open_exn c in
  let eval ?(budget = P.no_budget) session =
    match call_exn c (P.Eval { session; budget; want_stats = true }) with
    | P.Evaled { stats = Some st; _ } | P.Partial { stats = Some st; _ } -> st
    | r -> Alcotest.failf "eval failed: %s" (P.render_response r)
  in
  (* Bound in the written order: a list literal's elements evaluate
     right to left, which would run the fuel eval on a warm session. *)
  let cold_fuel = eval ~budget:{ P.no_budget with fuel = Some 1 } s1 in
  let warm0 = eval s0 in
  let warm1 = eval s1 in
  let repeat0 = eval s0 in
  let reported = [ cold_fuel; warm0; warm1; repeat0 ] in
  let num k j =
    match P.Json.member k j with
    | Some (P.Json.Num v) -> int_of_float v
    | _ -> Alcotest.failf "%s missing" k
  in
  match call_exn c P.Stats with
  | P.Server_stats { reasoner; _ } ->
      List.iter
        (fun k ->
          Alcotest.(check int) k
            (List.fold_left (fun acc j -> acc + num k j) 0 reported)
            (num k reasoner))
        [ "groundings"; "solves"; "budget_fuel_trips" ];
      Alcotest.(check bool) "the evals grounded" true (num "groundings" reasoner > 0);
      Alcotest.(check int) "the cold fuel trip" 1 (num "budget_fuel_trips" reasoner)
  | r -> Alcotest.failf "stats failed: %s" (P.render_response r)

(* An insert pipelined with a close of its session in one write: the
   close is answered inline while the insert runs on the worker, so the
   insert must not be acknowledged after the close, and the journal must
   not hold it after the close line. *)
let test_insert_racing_close () =
  incr counter;
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "omqd-test-journal-%d-%d" (Unix.getpid ()) !counter)
  in
  with_daemon ~jobs:1 ~journal:dir @@ fun addr ->
  let c = connect_exn addr in
  let sid = open_exn c in
  Omqd.Client.close c;
  let fd = Helpers.raw_connect addr in
  Helpers.write_all fd
    (P.render_request ~id:1 (P.Insert_facts { session = sid; facts = "Thumb(u)" })
    ^ "\n"
    ^ P.render_request ~id:2 (P.Close_session { session = sid })
    ^ "\n");
  let buf = Buffer.create 256 in
  let next () =
    match P.parse_response (Helpers.read_line fd buf) with
    | Ok (_, r) -> r
    | Error _ -> Alcotest.fail "undecodable response"
  in
  let first = next () in
  let second = next () in
  Unix.close fd;
  (match (first, second) with
  | P.Closed _, P.Inserted _ ->
      Alcotest.fail "insert_facts acked after its session was closed"
  | P.Closed _, P.Rejected { kind = P.Unknown_session; _ }
  | P.Inserted _, P.Closed _ ->
      ()
  | a, b ->
      Alcotest.failf "unexpected responses: %s / %s" (P.render_response a)
        (P.render_response b));
  let entries, _ = Omqd.Journal.load dir in
  match List.rev entries with
  | Omqd.Journal.Close _ :: _ -> ()
  | _ -> Alcotest.fail "the journal does not end with the close"

(* Updates pipelined in one write build on each other, and an eval
   behind them sees both: every job reads the session as the jobs
   queued before it on its worker left it. *)
let test_pipelined_updates () =
  with_daemon ~jobs:1 @@ fun addr ->
  let c = connect_exn addr in
  let sid = open_exn c in
  Omqd.Client.close c;
  let fd = Helpers.raw_connect addr in
  Helpers.write_all fd
    (String.concat ""
       (List.map
          (fun (id, req) -> P.render_request ~id req ^ "\n")
          [
            (1, P.Insert_facts { session = sid; facts = "Thumb(a)" });
            (2, P.Insert_facts { session = sid; facts = "Thumb(b)" });
            (3, eval_req sid);
          ]));
  let buf = Buffer.create 256 in
  let next () =
    match P.parse_response (Helpers.read_line fd buf) with
    | Ok (_, r) -> P.render_response r
    | Error _ -> Alcotest.fail "undecodable response"
  in
  let r1 = next () in
  let r2 = next () in
  let r3 = next () in
  Unix.close fd;
  check_str "first insert"
    (P.render_response (P.Inserted { session = sid; total_facts = 4 }))
    r1;
  check_str "second insert builds on the first"
    (P.render_response (P.Inserted { session = sid; total_facts = 5 }))
    r2;
  check_str "the eval sees both inserts"
    (P.render_response (direct_eval ~extra:"Thumb(a)\nThumb(b)" ()))
    r3

let test_clean_shutdown () =
  with_daemon @@ fun addr ->
  let c = connect_exn addr in
  (match call_exn c P.Shutdown with
  | P.Shutdown_ack -> ()
  | r -> Alcotest.failf "expected shutdown ack: %s" (P.render_response r));
  Omqd.Client.close c
(* with_daemon joins the thread and fails the test unless run returned
   Ok () — that is the clean-shutdown assertion. *)

let test_loadgen () =
  with_daemon ~jobs:2 @@ fun addr ->
  let expected = P.render_response (direct_eval ()) in
  check_str "Core.expected_eval renders the direct eval" expected
    (Result.get_ok
       (Omqd.Core.expected_eval ~ontology:onto ~data ~query ~max_extra:2));
  let spec =
    {
      Omqd.Loadgen.open_req;
      expected;
    }
  in
  match Omqd.Loadgen.run addr [ spec; spec ] ~queries:4 with
  | Error m -> Alcotest.failf "loadgen: %s" m
  | Ok s ->
      Alcotest.(check int) "all evals answered" 8 s.Omqd.Loadgen.total;
      Alcotest.(check int) "all complete" 8 s.Omqd.Loadgen.ok;
      Alcotest.(check int) "no mismatches" 0 s.Omqd.Loadgen.mismatches

(* The comparison is live: an expectation no answer renders to counts
   a mismatch on every eval, complete as each one is. *)
let test_loadgen_wrong_expectation () =
  with_daemon ~jobs:2 @@ fun addr ->
  let spec =
    {
      Omqd.Loadgen.open_req;
      expected = P.render_response (direct_eval ~extra:"Thumb(u)" ());
    }
  in
  match Omqd.Loadgen.run addr [ spec; spec ] ~queries:3 with
  | Error m -> Alcotest.failf "loadgen: %s" m
  | Ok s ->
      Alcotest.(check int) "all evals answered" 6 s.Omqd.Loadgen.total;
      Alcotest.(check int) "all complete" 6 s.Omqd.Loadgen.ok;
      Alcotest.(check int) "every eval mismatched" 6 s.Omqd.Loadgen.mismatches

(* A client whose open is rejected ends that one client; the rest of
   the fleet finishes and the run still returns Ok with the failure
   visible in the counters — chaos benches measure degradation, they
   must not abort. *)
let test_loadgen_counts_failures () =
  with_daemon ~jobs:2 @@ fun addr ->
  let good =
    {
      Omqd.Loadgen.open_req;
      expected = P.render_response (direct_eval ());
    }
  in
  let bad =
    {
      good with
      Omqd.Loadgen.open_req =
        P.Open_session
          { ontology = "Hand <<"; data = ""; query; max_extra = 2 };
    }
  in
  match Omqd.Loadgen.run addr [ good; bad ] ~queries:3 with
  | Error m -> Alcotest.failf "loadgen: %s" m
  | Ok s ->
      Alcotest.(check int) "both specs reported" 2 s.Omqd.Loadgen.clients;
      Alcotest.(check int) "good client answered" 3 s.Omqd.Loadgen.total;
      Alcotest.(check int) "bad open counted as an error" 1 s.Omqd.Loadgen.errors;
      Alcotest.(check int) "no io failures" 0 s.Omqd.Loadgen.io_failures;
      Alcotest.(check int) "no mismatches" 0 s.Omqd.Loadgen.mismatches

(* A peer that reads each client's open frame and hangs up drops the
   whole fleet mid-run: one io failure per client, no eval answered,
   and the run still returns Ok. *)
let test_loadgen_counts_hangups () =
  incr counter;
  let path =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "omqd-test-%d-%d.sock" (Unix.getpid ()) !counter)
  in
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  let lfd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind lfd (Unix.ADDR_UNIX path);
  Unix.listen lfd 8;
  let byte = Bytes.create 1 in
  let rec skip_frame fd =
    match Unix.read fd byte 0 1 with
    | 1 when Bytes.get byte 0 <> '\n' -> skip_frame fd
    | _ -> ()
  in
  let hang_up () =
    for _ = 1 to 2 do
      let fd, _ = Unix.accept lfd in
      skip_frame fd;
      Unix.close fd
    done
  in
  let th = Thread.create hang_up () in
  let spec =
    { Omqd.Loadgen.open_req; expected = P.render_response (direct_eval ()) }
  in
  let outcome =
    Omqd.Loadgen.run (Omqd.Daemon.Unix_path path) [ spec; spec ] ~queries:3
  in
  Thread.join th;
  Unix.close lfd;
  Unix.unlink path;
  match outcome with
  | Error m -> Alcotest.failf "loadgen: %s" m
  | Ok s ->
      Alcotest.(check int) "no eval answered" 0 s.Omqd.Loadgen.total;
      Alcotest.(check int) "every client dropped" 2 s.Omqd.Loadgen.io_failures;
      Alcotest.(check int) "every client connected" 0
        s.Omqd.Loadgen.connect_failures

let suite =
  [
    Alcotest.test_case "served eval equals direct rendering" `Quick
      test_eval_matches_direct;
    Alcotest.test_case "insert_facts answers like the union" `Quick
      test_insert_facts;
    Alcotest.test_case "retract_facts answers like the difference" `Quick
      test_retract_facts;
    Alcotest.test_case "budget trip is isolated per request" `Quick
      test_budget_isolation;
    Alcotest.test_case "malformed frames get typed rejections" `Quick
      test_malformed_then_valid;
    Alcotest.test_case "oversized frames get typed rejections" `Quick
      test_oversized_frame;
    Alcotest.test_case "unknown session / unparsable input" `Quick
      test_unknown_session_and_bad_input;
    Alcotest.test_case "close_session and server stats" `Quick
      test_close_and_stats;
    Alcotest.test_case "eval stats carry the Stats.json keys in order" `Quick
      test_eval_stats_shape;
    Alcotest.test_case "stats reasoner totals sum the evals' stats" `Quick
      test_reasoner_totals_sum_evals;
    Alcotest.test_case "an insert racing a close is not acked" `Quick
      test_insert_racing_close;
    Alcotest.test_case "pipelined updates build on each other" `Quick
      test_pipelined_updates;
    Alcotest.test_case "clean shutdown" `Quick test_clean_shutdown;
    Alcotest.test_case "loadgen drives concurrent clients" `Quick test_loadgen;
    Alcotest.test_case "loadgen counts a wrong expectation per eval" `Quick
      test_loadgen_wrong_expectation;
    Alcotest.test_case "loadgen counts per-client failures" `Quick
      test_loadgen_counts_failures;
    Alcotest.test_case "loadgen counts a peer's hang-ups" `Quick
      test_loadgen_counts_hangups;
  ]
