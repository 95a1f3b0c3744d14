(* Equivalence suite for the cost-based evaluation engine: on random
   instances the planner pipeline (Relindex + Eval) must return exactly
   the answers of independent references at every layer built on it —
   CQ evaluation and homomorphism enumeration against the backtracking
   [Homomorphism.fold_naive], the chase's semi-naive Datalog≠ rounds
   against naive evaluation ([Helpers.evaluate_naive]), and the chase's
   existential rules against bounded model
   search ([Reasoner.Bounded]). Byte-identity matters: downstream
   consumers compare answer lists structurally. *)

open Helpers
module EMap = Structure.Element.Map

let signature =
  Logic.Signature.of_list [ ("R", 2); ("S", 2); ("A", 1); ("B", 1) ]

let rand_instance ?(size = 4) ?(p = 0.3) seed =
  let rng = Random.State.make [| seed |] in
  Structure.Randgen.nonempty_instance ~rng ~signature ~size ~p

(* A mix of shapes: joins, repeated variables, constants, boolean,
   full-arity answers, cartesian-ish bodies. *)
let cqs =
  [
    cq ~name:"q_join" ~answer:[ "x" ] [ ("R", [ v "x"; v "y" ]); ("A", [ v "y" ]) ];
    cq ~name:"q_path" ~answer:[ "x"; "y" ]
      [ ("R", [ v "x"; v "z" ]); ("S", [ v "z"; v "y" ]) ];
    cq ~name:"q_loop" ~answer:[] [ ("R", [ v "x"; v "x" ]) ];
    cq ~name:"q_cycle" ~answer:[ "x" ]
      [ ("R", [ v "x"; v "y" ]); ("R", [ v "y"; v "x" ]); ("B", [ v "x" ]) ];
    cq ~name:"q_const" ~answer:[ "x" ]
      [ ("A", [ v "x" ]); ("R", [ c "c0"; v "x" ]) ];
    cq ~name:"q_prod" ~answer:[ "x"; "y" ]
      [ ("A", [ v "x" ]); ("B", [ v "y" ]) ];
  ]

(* Reference CQ evaluation: homomorphisms from the canonical database
   D_q extending [fixed], enumerated by the backtracking search. *)
let naive_fold d q ~fixed f init =
  Structure.Homomorphism.fold_naive ~fixed ~source:(Query.Cq.canonical_db q)
    ~target:d f init

let naive_answers d q =
  naive_fold d q ~fixed:(Query.Cq.constant_fixing q)
    (fun m acc ->
      ( false,
        List.map (fun x -> EMap.find (Query.Cq.var_element x) m) q.Query.Cq.answer
        :: acc ))
    []
  |> List.sort_uniq (List.compare Structure.Element.compare)

let naive_holds d q t =
  let fixed =
    List.fold_left2
      (fun m x e -> EMap.add (Query.Cq.var_element x) e m)
      (Query.Cq.constant_fixing q) q.Query.Cq.answer t
  in
  naive_fold d q ~fixed (fun _ _ -> (true, true)) false

let test_cq_equiv =
  QCheck.Test.make ~name:"Cq.holds/answers: planner = naive" ~count:40
    QCheck.(int_bound 100_000)
    (fun seed ->
      let d = rand_instance seed in
      let dom = Structure.Instance.domain_list d in
      List.for_all
        (fun q ->
          let arity = List.length q.Query.Cq.answer in
          Query.Cq.answers d q = naive_answers d q
          && List.for_all
               (fun t -> Bool.equal (Query.Cq.holds d q t) (naive_holds d q t))
               (Structure.Randgen.tuples dom arity))
        cqs)

let test_hom_equiv =
  QCheck.Test.make ~name:"Homomorphism.fold: planner = fold_naive" ~count:40
    QCheck.(int_bound 100_000)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let source =
        Structure.Randgen.nonempty_instance ~rng ~signature ~size:3 ~p:0.35
      in
      let target =
        Structure.Randgen.nonempty_instance ~rng ~signature ~size:4 ~p:0.35
      in
      let planner ?fixed () =
        Structure.Homomorphism.fold ?fixed ~source ~target
          (fun m acc -> (false, EMap.bindings m :: acc))
          []
        |> List.sort compare
      in
      let naive ?fixed () =
        Structure.Homomorphism.fold_naive ?fixed ~source ~target
          (fun m acc -> (false, EMap.bindings m :: acc))
          []
        |> List.sort compare
      in
      let free_ok = planner () = naive () in
      (* Pin one source element to itself (it is also a target constant). *)
      let fixed_ok =
        match Structure.Instance.domain_list source with
        | e :: _ when Structure.Element.Set.mem e (Structure.Instance.domain target)
          ->
            let fixed = EMap.singleton e e in
            planner ~fixed () = naive ~fixed ()
        | _ -> true
      in
      free_ok && fixed_ok)

let chase_rules =
  [
    Reasoner.Chase.rule ~name:"exists"
      ~body:[ ("A", [ v "x" ]) ]
      ~head:[ ("R", [ v "x"; v "y" ]); ("B", [ v "y" ]) ]
      ();
    Reasoner.Chase.rule ~name:"compose"
      ~body:[ ("R", [ v "x"; v "y" ]); ("S", [ v "y"; v "z" ]) ]
      ~head:[ ("R", [ v "x"; v "z" ]) ]
      ();
    Reasoner.Chase.rule ~name:"mark"
      ~body:[ ("R", [ v "x"; v "y" ]); ("B", [ v "y" ]) ]
      ~head:[ ("A", [ v "x" ]) ]
      ();
  ]

(* [chase_rules] as first-order sentences, for the bounded oracle. *)
let chase_ontology =
  let implies xs body head = F.Forall (xs, F.Implies (F.conj body, head)) in
  Logic.Ontology.make
    [
      implies [ "x" ] [ atom "A" [ v "x" ] ]
        (F.Exists
           ([ "y" ], F.And (atom "R" [ v "x"; v "y" ], atom "B" [ v "y" ])));
      implies [ "x"; "y"; "z" ]
        [ atom "R" [ v "x"; v "y" ]; atom "S" [ v "y"; v "z" ] ]
        (atom "R" [ v "x"; v "z" ]);
      implies [ "x"; "y" ]
        [ atom "R" [ v "x"; v "y" ]; atom "B" [ v "y" ] ]
        (atom "A" [ v "x" ]);
    ]

(* The chase's atomic answers over D's constants must be exactly the
   bounded certain answers at k extra elements, k the number of nulls
   the chase introduced: every chased fact is entailed, and the chase
   result is itself a model of the rules over dom(D) plus k nulls, so it
   refutes every atom it lacks at that bound. The chase of these rules
   always terminates (nulls only ever get an incoming R and a B). *)
let test_chase_vs_bounded =
  QCheck.Test.make ~name:"Chase.run atoms = Bounded.certain_cq" ~count:25
    QCheck.(int_bound 100_000)
    (fun seed ->
      let d = rand_instance ~size:3 ~p:0.35 seed in
      let r = Reasoner.Chase.run chase_rules d in
      let chased = r.Reasoner.Chase.instance in
      let k =
        List.length
          (List.filter
             (function Structure.Element.Null _ -> true | _ -> false)
             (Structure.Instance.domain_list chased))
      in
      let consts = Structure.Instance.domain_list d in
      List.for_all
           (fun (rel, arity) ->
             let xs = List.init arity (Printf.sprintf "x%d") in
             let q = cq ~answer:xs [ (rel, List.map v xs) ] in
             List.for_all
               (fun t ->
                 Bool.equal (Query.Cq.holds chased q t)
                   (Reasoner.Bounded.certain_cq ~max_extra:k chase_ontology d
                      q t))
               (Structure.Randgen.tuples consts arity))
           (Logic.Signature.to_list signature))

let tc_program =
  Datalog.Program.make ~goal:"T"
    [
      Datalog.Program.rule
        ~head:("T", [ v "x"; v "y" ])
        ~body:[ Datalog.Program.Pos ("R", [ v "x"; v "y" ]) ];
      Datalog.Program.rule
        ~head:("T", [ v "x"; v "z" ])
        ~body:
          [
            Datalog.Program.Pos ("T", [ v "x"; v "y" ]);
            Datalog.Program.Pos ("R", [ v "y"; v "z" ]);
          ];
      (* inequality + constant exercise the non-join literal paths *)
      Datalog.Program.rule
        ~head:("T", [ v "x"; c "c0" ])
        ~body:
          [
            Datalog.Program.Pos ("A", [ v "x" ]);
            Datalog.Program.Neq (v "x", c "c0");
          ];
    ]

let test_datalog_equiv =
  QCheck.Test.make ~name:"Datalog.answers: chase = naive" ~count:25
    QCheck.(int_bound 100_000)
    (fun seed ->
      let d = rand_instance seed in
      let reference = evaluate_naive tc_program d in
      Structure.Instance.equal
        (Reasoner.Chase.run (Datalog.Program.chase_rules tc_program) d).Reasoner.Chase.instance
        reference
      && Datalog.Program.answers tc_program d
         = (Structure.Instance.tuples "T" reference
           |> List.sort_uniq (List.compare Structure.Element.compare)))

(* Adaptive switchover: a small relation is always scanned; a larger one
   acquires a pattern hash table only after repeated probes. *)
let test_adaptive_switchover () =
  let big =
    List.init 40 (fun i -> ("R", [ "a" ^ string_of_int i; "b" ^ string_of_int (i mod 7) ]))
  in
  let small = List.init 5 (fun i -> ("S", [ "a0"; "b" ^ string_of_int i ])) in
  let d = inst (big @ small) in
  let idx = Structure.Relindex.build d in
  Alcotest.(check int) "fresh index has no tables" 0
    (Structure.Relindex.tables_built idx);
  let probe rel elem =
    let pat = [| Structure.Relindex.id_of idx elem; -1 |] in
    let n = ref 0 in
    Structure.Relindex.iter_matches idx rel ~pat (fun _ _ -> incr n);
    !n
  in
  (* Small relation: probe as often as we like, never pays for a table. *)
  for _ = 1 to 10 do
    ignore (probe "S" (e "a0"))
  done;
  Alcotest.(check int) "small relation stays scan-only" 0
    (Structure.Relindex.tables_built idx);
  (* Large relation: the first two probes scan, the third builds. *)
  ignore (probe "R" (e "a1"));
  ignore (probe "R" (e "a2"));
  Alcotest.(check int) "probes under cutoff still scan" 0
    (Structure.Relindex.tables_built idx);
  Alcotest.(check int) "lookup result" 1 (probe "R" (e "a3"));
  Alcotest.(check int) "third probe builds the hash table" 1
    (Structure.Relindex.tables_built idx);
  (* Answers must be identical either side of the switchover. *)
  Alcotest.(check int) "hash lookup result" 1 (probe "R" (e "a4"))

(* Plans are a pure function of atoms + statistics: planning twice gives
   the same JSON; the cached index is reused for the same instance. *)
let test_plan_deterministic () =
  let d = rand_instance 42 in
  let idx = Structure.Relindex.of_instance d in
  Alcotest.(check bool) "index cache hit" true
    (idx == Structure.Relindex.of_instance d);
  let atoms =
    [
      Structure.Eval.atom "R" [ Structure.Eval.Var 0; Structure.Eval.Var 1 ];
      Structure.Eval.atom "A" [ Structure.Eval.Var 1 ];
    ]
  in
  let module J = Obs.Json in
  let explain idx = J.render (Structure.Eval.explain_json (Structure.Eval.make_plan idx atoms)) in
  let j1 = explain idx in
  let j2 = explain idx in
  Alcotest.(check string) "same plan twice" j1 j2;
  let j3 = explain (Structure.Relindex.build d) in
  Alcotest.(check string) "fresh index, same plan" j1 j3;
  (* Names are escaped: a query named with a quote and a backslash
     still explains to a well-formed object. *)
  let q = cq ~name:"q\"\\x" ~answer:[ "x" ] [ ("R", [ v "x"; v "y" ]) ] in
  match J.parse (J.render (Query.Cq.explain d q)) with
  | Error msg -> Alcotest.failf "Cq.explain is not JSON: %s" msg
  | Ok j ->
      Alcotest.(check bool) "query name round-trips" true
        (J.member "query" j = Some (J.Str q.Query.Cq.name));
      Alcotest.(check bool) "vars and plan present" true
        (J.member "vars" j = Some (J.Arr [ J.Str "x"; J.Str "y" ])
        && Option.is_some (J.member "plan" j))

let test_randgen_large_deterministic () =
  let gen () =
    Structure.Randgen.large
      ~rng:(Random.State.make [| 7 |])
      ~nconst:50 ~nfacts:500 ()
  in
  let a = gen () and b = gen () in
  Alcotest.(check bool) "same seed, same instance" true
    (Structure.Instance.equal a b);
  let n = Structure.Instance.cardinal a in
  Alcotest.(check bool) "fact count in expected band" true
    (n > 400 && n < 600)

let suite =
  [
    QCheck_alcotest.to_alcotest test_cq_equiv;
    QCheck_alcotest.to_alcotest test_hom_equiv;
    QCheck_alcotest.to_alcotest test_chase_vs_bounded;
    QCheck_alcotest.to_alcotest test_datalog_equiv;
    Alcotest.test_case "adaptive_switchover" `Quick test_adaptive_switchover;
    Alcotest.test_case "plan_deterministic" `Quick test_plan_deterministic;
    Alcotest.test_case "randgen_large_deterministic" `Quick
      test_randgen_large_deterministic;
  ]
