(* The incremental engine (Reasoner.Engine) must be observationally
   equivalent to the one-shot Bounded reference at every bound, ground
   each bound once and only on demand, and account its work faithfully
   in its stats record. *)

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
          (* one engine answers everything, as callers use it *)
          let eng = Reasoner.Engine.create o d in
          let dom = Structure.Instance.domain_list d in
          Bool.equal
            (Reasoner.Engine.is_consistent ~max_extra eng)
            (Reasoner.Bounded.is_consistent ~max_extra o d)
          && List.for_all
               (fun el ->
                 List.for_all
                   (fun q ->
                     Bool.equal
                       (Reasoner.Engine.certain_cq ~max_extra eng q [ el ])
                       (Reasoner.Bounded.certain_cq ~max_extra o d q [ el ]))
                   [ qc; qa; qb ]
                 && Bool.equal
                      (Reasoner.Engine.certain_ucq ~max_extra eng qab [ el ])
                      (Reasoner.Bounded.certain_ucq ~max_extra o d qab [ el ])
                 &&
                 let pointed = [ (qa, [ el ]); (qb, [ el ]) ] in
                 Bool.equal
                   (Reasoner.Engine.certain_disjunction ~max_extra eng pointed)
                   (Reasoner.Bounded.certain_disjunction ~max_extra o d pointed))
               dom)
        [ (o_horn, d); (o_disj, d); (o_count, wide) ])

(* 2. One engine grounds each bound once, on first use, whatever entry
   point asks: consistency (decided at bound 0), every element's
   certainty (a certain C walks all bounds up to 1), a disjunction and a
   signed model at ~max_extra:2 (which grounds bound 2) share the
   engine's bounds 0, 1 and 2. *)
let test_grounds_each_bound_once () =
  let d = inst [ ("A", [ "a" ]); ("R", [ "a"; "b" ]) ] in
  let eng = Reasoner.Engine.create o_horn d in
  let groundings () = (Reasoner.Engine.stats eng).groundings in
  check_int "create grounds nothing" 0 (groundings ());
  check "consistent" true (Reasoner.Engine.is_consistent eng);
  check_int "consistency is decided at bound 0" 1 (groundings ());
  List.iter
    (fun el -> ignore (Reasoner.Engine.certain_cq ~max_extra:1 eng qc [ el ]))
    (Structure.Instance.domain_list d);
  check "C(a) certain" true (Reasoner.Engine.certain_cq ~max_extra:1 eng qc [ e "a" ]);
  check_int "certainty walked bounds 0 and 1" 2 (groundings ());
  check "A(a) or B(a) certain" true
    (Reasoner.Engine.certain_disjunction ~max_extra:1 eng
       [ (qa, [ e "a" ]); (qb, [ e "a" ]) ]);
  check "a model without C(a) exists nowhere" true
    (Option.is_none
       (Reasoner.Engine.signed_model ~max_extra:2 eng [ (qc, [ e "a" ], false) ]));
  check_int "exactly 3 groundings" 3 (groundings ());
  check "solver was invoked" true ((Reasoner.Engine.stats eng).solves > 0)

(* 3. A fuel trip while bound 1 is grounding leaves bound 1 unbuilt: the
   engine keeps answering like a fresh one, and the next call grounds
   bound 1 exactly once. *)
let test_trip_while_grounding () =
  let d = inst [ ("D", [ "a" ]); ("D", [ "b" ]) ] in
  let pointed = [ (qa, [ e "a" ]); (qb, [ e "a" ]) ] in
  let fresh = Reasoner.Engine.create o_disj d in
  let expected = Reasoner.Engine.certain_disjunction ~max_extra:1 fresh pointed in
  check "A(a) or B(a) certain" true expected;
  (* the checkpoints the walk passes before it reaches bound 1 *)
  let eng = Reasoner.Engine.create o_disj d in
  let obs = Reasoner.Budget.observer () in
  ignore (Reasoner.Engine.certain_disjunction ~budget:obs ~max_extra:0 eng pointed);
  let at_bound_1 = Reasoner.Budget.checkpoints obs in
  let eng = Reasoner.Engine.create o_disj d in
  (match
     Reasoner.Engine.certain_disjunction
       ~budget:(Reasoner.Budget.inject_after at_bound_1)
       ~max_extra:1 eng pointed
   with
  | _ -> Alcotest.fail "the injected budget must trip while grounding bound 1"
  | exception Reasoner.Budget.Exhausted _ -> ());
  check_int "only bound 0 was grounded" 1 (Reasoner.Engine.stats eng).groundings;
  check "answers like a fresh engine" expected
    (Reasoner.Engine.certain_disjunction ~max_extra:1 eng pointed);
  check_int "bound 1 grounded exactly once" 2
    (Reasoner.Engine.stats eng).groundings;
  check "consistency like a fresh engine" true
    (Reasoner.Engine.is_consistent ~max_extra:1 eng)

(* 3b. A delta reaches every bound the engine has grounded, and a bound
   first grounded after the delta sees the updated instance: the dynamic
   engine answers like a fresh engine on the net instance at every
   ceiling, without regrounding a bound. *)
let test_delta_reaches_every_bound () =
  let d = inst [ ("A", [ "a" ]); ("R", [ "b"; "a" ]) ] in
  let b_fact : Structure.Instance.fact = { rel = "A"; args = [ e "b" ] } in
  let answers ~max_extra eng =
    List.filter
      (fun el -> Reasoner.Engine.certain_cq ~max_extra eng qc [ el ])
      (Structure.Instance.domain_list (Reasoner.Engine.instance eng))
  in
  let fresh ~max_extra d = answers ~max_extra (Reasoner.Engine.create o_horn d) in
  let eng = Reasoner.Engine.create ~dynamic:true o_horn d in
  let groundings () = (Reasoner.Engine.stats eng).groundings in
  check "C(a) only" true (answers ~max_extra:1 eng = [ e "a" ]);
  check_int "bounds 0 and 1 grounded" 2 (groundings ());
  check "insert A(b) is a delta" true
    (Reasoner.Engine.insert_facts eng [ b_fact ] = `Delta);
  let grown = Structure.Instance.add_fact b_fact d in
  check "both grounded bounds see A(b)" true
    (answers ~max_extra:1 eng = fresh ~max_extra:1 grown
    && answers ~max_extra:1 eng = [ e "a"; e "b" ]);
  check_int "no bound regrounded" 2 (groundings ());
  check "bound 2 grounds on the grown instance" true
    (answers ~max_extra:2 eng = fresh ~max_extra:2 grown);
  check_int "bound 2 grounded once" 3 (groundings ());
  check "retract A(b) is a delta" true
    (Reasoner.Engine.retract_facts eng [ b_fact ] = `Delta);
  check "all three bounds forget A(b)" true
    (answers ~max_extra:2 eng = fresh ~max_extra:2 d
    && answers ~max_extra:2 eng = [ e "a" ]);
  check_int "still three groundings" 3 (groundings ())

(* 4. Session stats count only the bounds the session's engine
   grounded. *)
let test_session_stats () =
  let omq = Omq.of_cq o_horn qc in
  let d = inst [ ("A", [ "a" ]); ("R", [ "a"; "b" ]) ] in
  let s = Omq.open_session ~max_extra:2 omq d in
  check_int "unforced session has no counters" 0
    (Omq.Session.stats s).groundings;
  let answers = Omq.Session.certain_answers s in
  check "certain C at the chain head" true (List.mem [ e "a" ] answers);
  check "grounded at least one bound" true ((Omq.Session.stats s).groundings > 0)

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
    Alcotest.test_case "grounds_each_bound_once" `Quick
      test_grounds_each_bound_once;
    Alcotest.test_case "trip_while_grounding" `Quick test_trip_while_grounding;
    Alcotest.test_case "delta_reaches_every_bound" `Quick
      test_delta_reaches_every_bound;
    Alcotest.test_case "session_stats" `Quick test_session_stats;
    Alcotest.test_case "horn_witness_refutes_in_bulk" `Quick
      test_horn_witness_refutes_in_bulk;
    Alcotest.test_case "rewritten_result" `Quick test_rewritten_result;
    Alcotest.test_case "streaming" `Quick test_streaming;
  ]
