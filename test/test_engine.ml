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

(* Counting, disjunction and an inverse role, as in the hard corpus
   item of the parallel tests:
   D ⊑ A ⊔ B,  A ⊑ ≥3 R.B,  B ⊑ ∃R⁻.D. Over a 7-element instance the
   counting node grounds by subset expansion at bounds 0 and 1 and as a
   sequential-counter ladder at bound 2 (C(9,3) = 84 subsets), so the
   engine's decision-variable split meets both kinds of auxiliary. *)
let o_count =
  let module F = Logic.Formula in
  Logic.Ontology.make
    [ forall_eq "x"
        (F.Implies (atom "D" [ v "x" ], F.Or (atom "A" [ v "x" ], atom "B" [ v "x" ])));
      forall_eq "x"
        (F.Implies
           ( atom "A" [ v "x" ],
             F.CountGeq (3, "y", F.And (atom "R" [ v "x"; v "y" ], atom "B" [ v "y" ])) ));
      forall_eq "x"
        (F.Implies
           ( atom "B" [ v "x" ],
             F.Exists ([ "y" ], F.And (atom "R" [ v "y"; v "x" ], atom "D" [ v "y" ])) ));
    ]

(* 1. Engine and Bounded agree on consistency, certain answers and
   certain disjunctions for random instances against a Horn, a
   disjunctive and a counting ontology, at every deepening ceiling
   0..2. *)
let test_engine_vs_bounded =
  QCheck.Test.make ~name:"engine agrees with Bounded at bounds 0-2" ~count:12
    QCheck.(pair (int_bound 100000) (int_range 0 2))
    (fun (seed, max_extra) ->
      let rng = Random.State.make [| seed |] in
      let signature =
        Logic.Signature.of_list [ ("A", 1); ("B", 1); ("D", 1); ("R", 2) ]
      in
      let d = Structure.Randgen.nonempty_instance ~rng ~signature ~size:3 ~p:0.35 in
      let wide = Structure.Randgen.nonempty_instance ~rng ~signature ~size:7 ~p:0.35 in
      List.for_all
        (fun (o, d) ->
          let dom = Structure.Instance.domain_list d in
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
        [ (o_horn, d); (o_disj, d); (o_count, wide) ])

(* 2. A session grounds once and answers many: repeated tuple checks on
   the same (O, D, extra) reuse the cached engine. *)
let test_cache_accounting () =
  let d = inst [ ("A", [ "a" ]); ("R", [ "a"; "b" ]) ] in
  Reasoner.Engine.clear_cache ();
  let eng = Reasoner.Engine.session ~extra:1 o_horn d in
  let st = Reasoner.Engine.stats eng in
  check_int "first lookup misses" 1 st.cache_misses;
  check_int "no hit yet" 0 st.cache_hits;
  check_int "one grounding" 1 st.groundings;
  let eng' = Reasoner.Engine.session ~extra:1 o_horn d in
  check "second lookup returns the same engine" true (eng == eng');
  check_int "second lookup hits" 1 (Reasoner.Engine.stats eng).cache_hits;
  check_int "still one grounding" 1 (Reasoner.Engine.stats eng).groundings;
  (* a different bound is a different session, with its own counters *)
  let eng0 = Reasoner.Engine.session ~extra:0 o_horn d in
  check "new bound is a new engine" true (eng0 != eng);
  check_int "new bound misses" 1 (Reasoner.Engine.stats eng0).cache_misses;
  check_int "new bound grounds" 1 (Reasoner.Engine.stats eng0).groundings;
  check_int "two cached sessions" 2 (Reasoner.Engine.cached_sessions ());
  (* many tuple checks, still one grounding per session *)
  List.iter
    (fun el -> ignore (Reasoner.Engine.certain_cq eng qc [ el ]))
    (Structure.Instance.domain_list d);
  check_int "tuple checks reuse the grounding" 1
    (Reasoner.Engine.stats eng).groundings;
  check "solver was invoked" true ((Reasoner.Engine.stats eng).solves > 0)

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

(* 4b. A session borrowing a cached engine reports its own work: its
   cache hit and its own solves, not the grounding and solves of the
   session that built the engine. Cross-checked against the cached
   engines' own lifetime counters, which see both sessions. *)
let test_borrowed_session_stats () =
  Omq.clear_caches ();
  let omq = Omq.of_cq o_horn qc in
  let d = inst [ ("A", [ "a" ]); ("R", [ "a"; "b" ]) ] in
  let run () =
    let s = Omq.open_session ~max_extra:1 omq d in
    ignore (Omq.Session.certain_answers s);
    Omq.Session.stats s
  in
  let engines () =
    List.map
      (fun extra ->
        Reasoner.Stats.copy
          (Reasoner.Engine.stats (Reasoner.Engine.session ~extra o_horn d)))
      [ 0; 1 ]
  in
  let first = run () in
  let e0 = engines () in
  let second = run () in
  let spent =
    List.fold_left2
      (fun acc after before ->
        Reasoner.Stats.add ~into:acc (Reasoner.Stats.diff after before);
        acc)
      (Reasoner.Stats.create ()) (engines ()) e0
  in
  check_int "first session grounds both bounds" 2 first.groundings;
  check_int "second session grounds nothing" 0 second.groundings;
  check_int "second session hits the cache per bound" 2 second.cache_hits;
  check "second session solved" true (second.solves > 0);
  check_int "second session reports only its own solves" spent.solves
    second.solves

(* 4c. Witness quality on a Horn input (the bulk-eval ontology and query
   shape over a fixed random instance): the solver branches on facts
   only, false first, so the first countermodel holds just the facts O
   and D force and refutes every non-answer. Each answer costs one
   unsatisfiable solve per bound 0..2; all non-answers together cost
   one satisfiable solve. *)
let test_horn_witness_refutes_in_bulk () =
  Omq.clear_caches ();
  let tbox =
    Dl.Parser.parse_tbox "C0 << C1\nexists r0 . C1 << C2\nC2 << exists r3 . C3\n"
  in
  let q = Query.Parse.ucq_of_string "q(x) <- r0(x,y), C2(x), C1(y)" in
  let d =
    Structure.Randgen.large ~rng:(Random.State.make [| 7 |]) ~nconst:30
      ~unary_p:0.1 ~nfacts:300 ()
  in
  let s = Omq.open_session ~max_extra:2 (Omq.of_tbox tbox q) d in
  let answers = List.length (Omq.Session.certain_answers s) in
  check "some answers, some non-answers" true
    (answers > 0 && answers < Structure.Instance.domain_size d);
  check_int "one solve per answer and bound, one for all non-answers"
    ((answers * 3) + 1)
    (Omq.Session.stats s).solves

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
    Alcotest.test_case "borrowed_session_stats" `Quick test_borrowed_session_stats;
    Alcotest.test_case "horn_witness_refutes_in_bulk" `Quick
      test_horn_witness_refutes_in_bulk;
    Alcotest.test_case "rewritten_result" `Quick test_rewritten_result;
    Alcotest.test_case "streaming" `Quick test_streaming;
  ]
