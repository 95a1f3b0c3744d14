(* The incremental engine (Reasoner.Engine) must be observationally
   equivalent to the one-shot Bounded reference, and its session cache
   and stats record must account traffic faithfully. *)

open Helpers

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let qc = cq ~name:"qc" ~answer:[ "x" ] [ ("C", [ v "x" ]) ]
let qa = cq ~name:"qa" ~answer:[ "x" ] [ ("A", [ v "x" ]) ]
let qb = cq ~name:"qb" ~answer:[ "x" ] [ ("B", [ v "x" ]) ]
let qab = ucq ~name:"qab" [ qa; qb ]

(* 1. Engine and Bounded agree on consistency, certain answers and
   certain disjunctions for random instances against a Horn and a
   disjunctive ontology, at every deepening ceiling 0..2. *)
let test_engine_vs_bounded =
  QCheck.Test.make ~name:"engine agrees with Bounded at bounds 0-2" ~count:12
    QCheck.(pair (int_bound 100000) (int_range 0 2))
    (fun (seed, max_extra) ->
      let rng = Random.State.make [| seed |] in
      let signature =
        Logic.Signature.of_list [ ("A", 1); ("B", 1); ("D", 1); ("R", 2) ]
      in
      let d = Structure.Randgen.nonempty_instance ~rng ~signature ~size:3 ~p:0.35 in
      let dom = Structure.Instance.domain_list d in
      List.for_all
        (fun o ->
          Bool.equal
            (Reasoner.Engine.is_consistent_upto ~max_extra o d)
            (Reasoner.Bounded.is_consistent ~max_extra o d)
          && List.for_all
               (fun el ->
                 List.for_all
                   (fun q ->
                     Bool.equal
                       (Reasoner.Engine.certain_cq_upto ~max_extra o d q [ el ])
                       (Reasoner.Bounded.certain_cq ~max_extra o d q [ el ]))
                   [ qc; qa; qb ]
                 && Bool.equal
                      (Reasoner.Engine.certain_ucq_upto ~max_extra o d qab [ el ])
                      (Reasoner.Bounded.certain_ucq ~max_extra o d qab [ el ])
                 &&
                 let pointed = [ (qa, [ el ]); (qb, [ el ]) ] in
                 Bool.equal
                   (Reasoner.Engine.certain_disjunction_upto ~max_extra o d pointed)
                   (Reasoner.Bounded.certain_disjunction ~max_extra o d pointed))
               dom)
        [ o_horn; o_disj ])

(* 2. A session grounds once and answers many: repeated tuple checks on
   the same (O, D, extra) reuse the cached engine. *)
let test_cache_accounting () =
  let d = inst [ ("A", [ "a" ]); ("R", [ "a"; "b" ]) ] in
  Reasoner.Engine.clear_cache ();
  Reasoner.Stats.reset (Reasoner.Stats.global ());
  let eng = Reasoner.Engine.session ~extra:1 o_horn d in
  check_int "first lookup misses" 1 (Reasoner.Stats.global ()).cache_misses;
  check_int "no hit yet" 0 (Reasoner.Stats.global ()).cache_hits;
  check_int "one grounding" 1 (Reasoner.Stats.global ()).groundings;
  let eng' = Reasoner.Engine.session ~extra:1 o_horn d in
  check "second lookup returns the same engine" true (eng == eng');
  check_int "second lookup hits" 1 (Reasoner.Stats.global ()).cache_hits;
  check_int "still one grounding" 1 (Reasoner.Stats.global ()).groundings;
  (* a different bound is a different session *)
  let _ = Reasoner.Engine.session ~extra:0 o_horn d in
  check_int "new bound misses" 2 (Reasoner.Stats.global ()).cache_misses;
  check_int "two cached sessions" 2 (Reasoner.Engine.cached_sessions ());
  (* many tuple checks, still one grounding per session *)
  List.iter
    (fun el -> ignore (Reasoner.Engine.certain_cq eng qc [ el ]))
    (Structure.Instance.domain_list d);
  check_int "tuple checks reuse the grounding" 2
    (Reasoner.Stats.global ()).groundings;
  check "solver was invoked" true ((Reasoner.Stats.global ()).solves > 0)

(* 3. The LRU cache evicts beyond its capacity. *)
let test_cache_eviction () =
  Reasoner.Engine.clear_cache ();
  Reasoner.Engine.set_cache_capacity 2;
  let d i = inst [ ("A", [ Printf.sprintf "a%d" i ]) ] in
  List.iter
    (fun i -> ignore (Reasoner.Engine.session ~extra:0 o_horn (d i)))
    [ 0; 1; 2; 3 ];
  check_int "capacity bounds the cache" 2 (Reasoner.Engine.cached_sessions ());
  Reasoner.Engine.set_cache_capacity 16;
  Reasoner.Engine.clear_cache ()

(* 4. Session stats aggregate only the engines the session forced. *)
let test_session_stats () =
  Reasoner.Engine.clear_cache ();
  let omq = Omq.of_cq o_horn qc in
  let d = inst [ ("A", [ "a" ]); ("R", [ "a"; "b" ]) ] in
  let s = Omq.open_session ~max_extra:2 omq d in
  check_int "unforced session has no counters" 0
    (Omq.Session.stats s).groundings;
  let answers = Omq.Session.certain_answers s in
  check "certain C at the chain head" true (List.mem [ e "a" ] answers);
  check "grounded at least one bound" true ((Omq.Session.stats s).groundings > 0)

(* 5. rewritten_certain is result-typed: single CQs evaluate, proper
   unions are rejected rather than raising. *)
let test_rewritten_result () =
  let d = inst [ ("A", [ "a" ]); ("R", [ "a"; "b" ]) ] in
  let single = Omq.of_cq o_horn qc in
  check "single CQ evaluates" true
    (Omq.rewritten_certain ~extra:2 single d [ e "a" ] = Ok true);
  let union = Omq.make o_horn qab in
  check "union is rejected" true
    (Omq.rewritten_certain ~extra:2 union d [ e "a" ] = Error `Not_single_cq)

(* 6. Streaming answers agree with the materialized list and short-
   circuit booleans. *)
let test_streaming () =
  let omq = Omq.of_cq o_horn qc in
  let d = inst [ ("A", [ "a" ]); ("R", [ "a"; "b" ]) ] in
  let s = Omq.open_session ~max_extra:1 omq d in
  check "seq agrees with list" true
    (List.of_seq (Omq.Session.certain_answers_seq s)
    = Omq.Session.certain_answers s);
  let bq = Omq.make o_horn (ucq ~name:"bool" [ cq ~name:"q" ~answer:[] [ ("A", [ v "x" ]) ] ]) in
  Alcotest.(check (list (list bool)))
    "boolean query answers via []" [ [] ]
    (List.map (List.map (fun _ -> true)) (Omq.certain_answers ~max_extra:1 bq d))

let suite =
  [
    QCheck_alcotest.to_alcotest test_engine_vs_bounded;
    Alcotest.test_case "cache_accounting" `Quick test_cache_accounting;
    Alcotest.test_case "cache_eviction" `Quick test_cache_eviction;
    Alcotest.test_case "session_stats" `Quick test_session_stats;
    Alcotest.test_case "rewritten_result" `Quick test_rewritten_result;
    Alcotest.test_case "streaming" `Quick test_streaming;
  ]
