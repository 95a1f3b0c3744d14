(* Omqd.Core, the daemon's IO-free decisions, driven by event sequences
   through the simulated shell in sim.ml: jobs run inline, no sockets,
   threads or sleeps.

   The exhaustive part: for small scenarios of two connections on one or
   two workers, every interleaving of up to [depth] events (a frame
   sent, a job finishing, a peer hanging up, the clock passing the
   supervision deadline, SIGTERM) is run, the rest of the queued work is
   completed, and the serving invariants are checked on the full event
   and action log. *)

module C = Omqd.Core
module P = Omq.Protocol
module Journal = Omqd.Journal

let depth = 6

type scenario = {
  name : string;
  jobs : int;
  max_inflight : int option;
  supervise : float option;
  failing_append : int option;  (** this append attempt fails *)
  scripts : (int * P.request) list list array;
      (** per conn: the frames (id, request) each send carries *)
  hangup : bool;  (** conn 1 may hang up *)
  late : bool;  (** the clock may pass the supervision deadline *)
  term : bool;  (** SIGTERM may arrive *)
}

type move = Send of int | Run of int | Hup | Late | Term

let scenario ?(jobs = 1) ?max_inflight ?supervise ?failing_append
    ?(hangup = false) ?(late = false) ?(term = false) name scripts =
  {
    name;
    jobs;
    max_inflight;
    supervise;
    failing_append;
    scripts = Array.of_list scripts;
    hangup;
    late;
    term;
  }

let insert session facts = P.Insert_facts { session; facts }
let retract session facts = P.Retract_facts { session; facts }
let close session = P.Close_session { session }

let scenarios =
  let open_ = Sim.open_req and eval = Sim.eval_req in
  (* one frame per send, except where a list says several in one write *)
  let one = List.map (fun f -> [ f ]) in
  [
    scenario "insert races close"
      [ one [ (1, open_); (2, insert 1 "Thumb(u)"); (3, close 1) ]; one [ (4, eval 1) ] ];
    scenario "pipelined updates on two sessions"
      [
        one [ (1, open_); (2, retract 1 "Thumb(t)"); (3, insert 1 "Thumb(w)") ];
        one [ (4, open_); (5, insert 2 "Thumb(v)") ];
      ];
    scenario "closes pipelined in one write"
      [
        [ [ (1, open_) ]; [ (2, open_) ]; [ (3, close 1); (4, close 2); (5, eval 1) ] ];
        one [ (6, eval 2) ];
      ];
    scenario "shed at max_inflight" ~max_inflight:1
      [
        one [ (1, open_); (2, P.Classify { ontology = Sim.onto }) ];
        one [ (3, open_); (4, eval 1) ];
      ];
    scenario "quarantine mid-update" ~supervise:0.2 ~late:true
      [ one [ (1, open_); (2, insert 1 "Thumb(u)"); (3, eval 1) ]; one [ (4, eval 1) ] ];
    scenario "shutdown and SIGTERM drain" ~term:true
      [
        one [ (1, open_); (2, P.Shutdown) ];
        [ [ (3, eval 1) ]; [ (4, open_); (5, P.Shutdown); (6, eval 1) ] ];
      ];
    scenario "a failed append" ~failing_append:2
      [
        one [ (1, open_); (2, insert 1 "Thumb(u)"); (3, eval 1) ];
        one [ (4, open_); (5, close 2) ];
      ];
    scenario "peer hangs up" ~hangup:true
      [ one [ (1, open_); (2, eval 1) ]; one [ (3, open_); (4, insert 2 "Thumb(v)") ] ];
  ]

(* ---------------------------------------------------------------- *)
(* Running one interleaving *)

type run = {
  sim : Sim.t;
  sent : (int * int) list;  (** conn, id: frames sent, in order *)
  after_shutdown : (int * int) list;  (** frames sent once shutting *)
  hung : bool;
  shed_ok : bool;  (** in-flight never exceeded max_inflight *)
}

let enabled sc (sim : Sim.t) ~sent_of ~hung ~late ~term =
  List.concat
    [
      List.filter_map
        (fun c ->
          if sent_of c < List.length sc.scripts.(c) && not (c = 1 && hung) then
            Some (Send c)
          else None)
        [ 0; 1 ];
      List.filter_map
        (fun w -> if Queue.is_empty sim.Sim.queues.(w) then None else Some (Run w))
        (List.init sc.jobs Fun.id);
      (if sc.hangup && not hung then [ Hup ] else []);
      (if sc.late && not late then [ Late ] else []);
      (if sc.term && not term then [ Term ] else []);
    ]

(* Replay [moves] from a fresh core; return the run and the moves that
   could come next. *)
let play sc jobs moves =
  let sim =
    Sim.create ~jobs ?max_inflight:sc.max_inflight ?supervise:sc.supervise ()
  in
  Option.iter (fun k -> sim.Sim.fail_append <- (fun n -> n = k)) sc.failing_append;
  Sim.connect sim 0;
  Sim.connect sim 1;
  let next = [| 0; 0 |] in
  let sent = ref [] and after = ref [] in
  let hung = ref false and late = ref false and term = ref false in
  let shed_ok = ref true in
  let sc = { sc with jobs } in
  List.iter
    (fun m ->
      (match m with
      | Send c ->
          let frames = List.nth sc.scripts.(c) next.(c) in
          next.(c) <- next.(c) + 1;
          ignore
            (List.fold_left
               (fun shutting (id, req) ->
                 if shutting && req <> P.Shutdown then after := (c, id) :: !after;
                 sent := (c, id) :: !sent;
                 shutting || req = P.Shutdown)
               (C.shutting sim.Sim.core) frames);
          Sim.send sim c
            (String.concat "" (List.map (fun (id, req) -> Sim.frame ~id req) frames))
      | Run w -> Sim.complete sim w
      | Hup ->
          hung := true;
          Sim.hangup sim 1
      | Late ->
          late := true;
          Sim.tick sim 1.0
      | Term ->
          term := true;
          Sim.signal sim `Term);
      match sc.max_inflight with
      | Some cap when C.in_flight sim.Sim.core > cap -> shed_ok := false
      | _ -> ())
    moves;
  let more =
    enabled sc sim ~sent_of:(fun c -> next.(c)) ~hung:!hung ~late:!late ~term:!term
  in
  ( {
      sim;
      sent = List.rev !sent;
      after_shutdown = !after;
      hung = !hung;
      shed_ok = !shed_ok;
    },
    more )

(* ---------------------------------------------------------------- *)
(* The invariants *)

let canon text =
  match Structure.Parse.instance_of_string_result text with
  | Error m -> Alcotest.failf "unparsable facts: %s" m
  | Ok i ->
      Structure.Instance.facts i
      |> List.map (fun (f : Structure.Instance.fact) ->
             Printf.sprintf "%s(%s)" f.rel
               (String.concat "," (List.map Structure.Element.to_string f.args)))
      |> List.sort_uniq compare

let journal_key = function
  | Journal.Open { sid; _ } -> ("open", sid)
  | Journal.Insert { sid; _ } -> ("insert", sid)
  | Journal.Retract { sid; _ } -> ("retract", sid)
  | Journal.Close { sid } -> ("close", sid)

let ack_key = function
  | P.Opened { session } -> Some ("open", session)
  | P.Inserted { session; _ } -> Some ("insert", session)
  | P.Retracted { session; _ } -> Some ("retract", session)
  | P.Closed { session } -> Some ("close", session)
  | _ -> None

let addressed = function
  | P.Eval { session; _ }
  | P.Insert_facts { session; _ }
  | P.Retract_facts { session; _ }
  | P.Close_session { session } ->
      Some session
  | _ -> None

(* The answers a session on exactly [facts] gives, rendered; memoized,
   since every interleaving asks again. *)
let answers_on =
  let memo = Hashtbl.create 16 in
  fun facts ->
    match Hashtbl.find_opt memo facts with
    | Some r -> r
    | None ->
        let tbox = Dl.Parser.parse_tbox Sim.onto in
        let q = Query.Parse.ucq_of_string Sim.query in
        let d = Structure.Parse.instance_of_string (String.concat "\n" facts) in
        let session = Omq.open_session ~max_extra:2 (Omq.of_tbox tbox q) d in
        let r =
          P.render_response
            (P.Evaled
               {
                 result =
                   {
                     P.consistent = Omq.Session.is_consistent session;
                     boolean = false;
                     tuples =
                       List.map
                         (List.map (fun e -> Fmt.str "%a" Structure.Element.pp e))
                         (Omq.Session.certain_answers session);
                   };
                 stats = None;
               })
        in
        Hashtbl.replace memo facts r;
        r

let fail sc jobs moves fmt =
  Printf.ksprintf
    (fun m ->
      Alcotest.failf "%s (jobs %d) after [%s]: %s" sc.name jobs
        (String.concat "; "
           (List.map
              (function
                | Send c -> Printf.sprintf "send %d" c
                | Run w -> Printf.sprintf "run %d" w
                | Hup -> "hangup"
                | Late -> "late"
                | Term -> "sigterm")
              moves))
        m)
    fmt

let check sc jobs moves r =
  let fail fmt = fail sc jobs moves fmt in
  let sim = r.sim in
  Sim.settle sim;
  (* journal-before-ack: each ack's entry was appended and reported
     durable before the ack was written; a failed append answers
     Internal; nothing is written to a closed connection *)
  let durable = Hashtbl.create 7 and acked = Hashtbl.create 7 in
  let count tbl k = Option.value ~default:0 (Hashtbl.find_opt tbl k) in
  let closed = Hashtbl.create 2 in
  let model = Hashtbl.create 7 in
  let rec scan = function
    | Sim.Act (C.Append e) :: Sim.Ev (C.Journaled (Ok _)) :: rest ->
        Hashtbl.replace durable (journal_key e) (count durable (journal_key e) + 1);
        (match e with
        | Journal.Open { sid; data; _ } -> Hashtbl.replace model sid (canon data)
        | Journal.Insert { sid; facts } ->
            Hashtbl.replace model sid
              (List.sort_uniq compare (canon facts @ Hashtbl.find model sid))
        | Journal.Retract { sid; facts } ->
            Hashtbl.replace model sid
              (List.filter
                 (fun f -> not (List.mem f (canon facts)))
                 (Hashtbl.find model sid))
        | Journal.Close { sid } -> Hashtbl.remove model sid);
        scan rest
    | Sim.Act (C.Append _) :: Sim.Ev (C.Journaled (Error _)) :: rest ->
        let answered =
          List.exists
            (function
              | Sim.Act (C.Write (_, line)) -> (
                  match P.parse_response line with
                  | Ok (_, P.Rejected { kind = P.Internal; _ }) -> true
                  | _ -> false)
              | _ -> false)
            rest
        in
        if not (answered || r.hung) then fail "a failed append was not answered Internal";
        scan rest
    | Sim.Act (C.Close c) :: rest ->
        Hashtbl.replace closed c ();
        scan rest
    | Sim.Act (C.Write (c, line)) :: rest ->
        if Hashtbl.mem closed c then fail "wrote to closed conn %d" c;
        (match P.parse_response line with
        | Ok (Some _, resp) -> (
            match ack_key resp with
            | Some k ->
                Hashtbl.replace acked k (count acked k + 1);
                if count acked k > count durable k then
                  fail "ack %s %d written before its journal entry was durable"
                    (fst k) (snd k)
            | None -> ())
        | Ok (None, _) -> fail "response without an id"
        | Error (_, (_, m)) -> fail "undecodable response: %s" m);
        scan rest
    | _ :: rest -> scan rest
    | [] -> ()
  in
  scan (Sim.events sim);
  (* every durable change is acknowledged, unless its peer hung up *)
  if not r.hung then
    Hashtbl.iter
      (fun (tag, sid) n ->
        if count acked (tag, sid) <> n then fail "%s %d journalled but not acked" tag sid)
      durable;
  (* on every live connection: each request answered exactly once, and
     a frame behind an acknowledged close sees the session gone *)
  List.iter
    (fun c ->
      if not (c = 1 && r.hung) then begin
        let ids =
          List.filter_map (fun (c', id) -> if c = c' then Some id else None) r.sent
        in
        let got = List.filter_map fst (Sim.responses sim c) in
        if List.sort compare ids <> List.sort compare got then
          fail "conn %d: sent ids [%s], answered [%s]" c
            (String.concat "," (List.map string_of_int ids))
            (String.concat "," (List.map string_of_int got));
        let frames = List.concat sc.scripts.(c) in
        let after_close gone id =
          let req = List.assoc id frames and resp = Sim.response sim c id in
          (match (addressed req, resp) with
          | Some s, P.Rejected { kind = P.Unknown_session | P.Shutting_down; _ }
            when List.mem s gone ->
              ()
          | Some s, _ when List.mem s gone ->
              fail "frame %d reached session %d after its close: %s" id s
                (P.render_response resp)
          | _ -> ());
          match (req, resp) with
          | P.Close_session { session }, P.Closed _ -> session :: gone
          | _ -> gone
        in
        ignore (List.fold_left after_close [] ids : int list)
      end)
    [ 0; 1 ];
  (* a completion a quarantine already failed is dropped *)
  if Sim.complete_lost sim <> [] then fail "a late completion was answered";
  (* live sessions, and the journal a restart replays, hold exactly the
     durable history, which is the acknowledged one *)
  let expected =
    List.sort compare (Hashtbl.fold (fun sid fs acc -> (sid, fs) :: acc) model [])
  in
  let of_opens opens =
    List.map
      (function
        | Journal.Open { sid; data; _ } -> (sid, canon data)
        | _ -> fail "live entry is not an open")
      opens
  in
  if of_opens (C.live sim.Sim.core) <> expected then
    fail "live sessions differ from the acknowledged history";
  let replayed =
    List.sort compare @@ List.map
      (fun (sid, (_, data, _, _), _) -> (sid, canon data))
      (Journal.live_sessions (List.rev sim.Sim.journal))
  in
  if replayed <> expected then fail "the journal replays a different history";
  if not r.shed_ok then fail "in-flight jobs exceeded max_inflight";
  (* and each live session answers as a session on that data does *)
  if not (C.shutting sim.Sim.core) then begin
    Sim.connect sim 9;
    List.iteri
      (fun i (sid, facts) ->
        Sim.send sim 9 (Sim.frame ~id:i (Sim.eval_req sid));
        Sim.settle sim;
        let got = P.render_response (Sim.response sim 9 i) in
        if got <> answers_on facts then
          fail "session %d answers %s, not as its acknowledged data" sid got)
      expected
  end;
  (* drain: frames after shutdown are refused, and Stop comes only
     drained or past the grace, and does come once drained *)
  List.iter
    (fun (c, id) ->
      if not (c = 1 && r.hung) then
        match Sim.response sim c id with
        | P.Rejected { kind = P.Shutting_down; _ } -> ()
        | resp -> fail "frame %d after shutdown got %s" id (P.render_response resp))
    r.after_shutdown;
  if List.mem false sim.Sim.stops then fail "Stop before drained";
  if C.shutting sim.Sim.core && sim.Sim.stops = [] then fail "drained but no Stop"

(* Depth-first over every interleaving of up to [depth] moves. *)
let explore sc jobs =
  let cases = ref 0 in
  let rec go moves n =
    let r, more = play sc jobs moves in
    if n = depth || more = [] then begin
      incr cases;
      check sc jobs moves r
    end
    else List.iter (fun m -> go (moves @ [ m ]) (n + 1)) more
  in
  go [] 0;
  !cases

let test_interleavings () =
  let t0 = Obs.Clock.now () in
  let cases =
    List.fold_left
      (fun n sc -> n + explore sc 1 + explore sc 2)
      0 scenarios
  in
  Printf.printf "core: %d interleavings of up to %d events in %.2fs\n" cases
    depth (Obs.Clock.now () -. t0);
  Alcotest.(check bool) "some cases ran" true (cases > 0)

(* ---------------------------------------------------------------- *)
(* An update racing a close, in both orders *)

let journal_ops sim = List.rev_map journal_key sim.Sim.journal

let test_insert_races_close () =
  let opened () =
    let sim = Sim.create () in
    Sim.connect sim 0;
    Sim.send sim 0 (Sim.frame ~id:1 Sim.open_req);
    Sim.complete sim 0;
    sim
  in
  (* completion first: the insert is journalled and acked, then the
     close *)
  let sim = opened () in
  Sim.send sim 0 (Sim.frame ~id:2 (insert 1 "Thumb(u)"));
  Sim.complete sim 0;
  Sim.send sim 0 (Sim.frame ~id:3 (close 1));
  (match (Sim.response sim 0 2, Sim.response sim 0 3) with
  | P.Inserted { total_facts = 4; _ }, P.Closed _ -> ()
  | a, b -> Alcotest.failf "got %s / %s" (P.render_response a) (P.render_response b));
  Alcotest.(check (list (pair string int)))
    "open, insert, close journalled"
    [ ("open", 1); ("insert", 1); ("close", 1) ]
    (journal_ops sim);
  (* close first: the insert's completion finds no session, answers
     unknown_session and journals nothing *)
  let sim = opened () in
  Sim.send sim 0
    (Sim.frame ~id:2 (insert 1 "Thumb(u)") ^ Sim.frame ~id:3 (close 1));
  Sim.complete sim 0;
  (match Sim.responses sim 0 with
  | [ _; (Some 3, P.Closed _); (Some 2, P.Rejected { kind = P.Unknown_session; _ }) ]
    ->
      ()
  | rs ->
      Alcotest.failf "got [%s]"
        (String.concat "; " (List.map (fun (_, r) -> P.render_response r) rs)));
  Alcotest.(check (list (pair string int)))
    "the raced insert is not journalled"
    [ ("open", 1); ("close", 1) ]
    (journal_ops sim);
  Alcotest.(check int) "no session comes back" 0 (List.length (C.live sim.Sim.core))

let suite =
  [
    Alcotest.test_case "every interleaving keeps the serving invariants" `Quick
      test_interleavings;
    Alcotest.test_case "an insert racing a close is never acked" `Quick
      test_insert_races_close;
  ]
