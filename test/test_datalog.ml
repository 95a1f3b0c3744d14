open Helpers
module SSet = Logic.Names.SSet

let check = Alcotest.(check bool)
let chase rules d = (Reasoner.Chase.run rules d).Reasoner.Chase.instance
let has inst rel args = Structure.Instance.mem (Structure.Instance.fact rel args) inst

(* Transitive closure as chase rules. *)
let tc =
  [
    Reasoner.Chase.rule ~body:[ ("E", [ v "x"; v "y" ]) ] ~head:[ ("T", [ v "x"; v "y" ]) ] ();
    Reasoner.Chase.rule
      ~body:[ ("T", [ v "x"; v "y" ]); ("E", [ v "y"; v "z" ]) ]
      ~head:[ ("T", [ v "x"; v "z" ]) ]
      ();
  ]

let chain n =
  inst
    (List.init n (fun i ->
         ("E", [ Printf.sprintf "n%d" i; Printf.sprintf "n%d" (i + 1) ])))

let test_transitive_closure () =
  let t = chase tc (chain 4) in
  (* 5 nodes, all ordered pairs i<j: 10 *)
  Alcotest.(check int) "closure size" 10 (List.length (Structure.Instance.tuples "T" t));
  check "n0 to n4" true (has t "T" [ e "n0"; e "n4" ]);
  check "no backwards" false (has t "T" [ e "n4"; e "n0" ])

let test_seminaive_vs_naive =
  QCheck.Test.make ~name:"semi-naive agrees with naive" ~count:30
    QCheck.(int_bound 10000)
    (fun seed ->
      let signature = Logic.Signature.of_list [ ("E", 2); ("A", 1) ] in
      let rng = Random.State.make [| seed |] in
      let d = Structure.Randgen.instance ~rng ~signature ~size:4 ~p:0.3 in
      let p =
        Datalog.Program.make ~goal:"goal"
          [
            Datalog.Program.rule
              ~head:("T", [ v "x"; v "y" ])
              ~body:[ Datalog.Program.Pos ("E", [ v "x"; v "y" ]) ];
            Datalog.Program.rule
              ~head:("T", [ v "x"; v "z" ])
              ~body:
                [
                  Datalog.Program.Pos ("T", [ v "x"; v "y" ]);
                  Datalog.Program.Pos ("T", [ v "y"; v "z" ]);
                ];
            Datalog.Program.rule
              ~head:("goal", [ v "x" ])
              ~body:
                [
                  Datalog.Program.Pos ("T", [ v "x"; v "x" ]);
                  Datalog.Program.Pos ("A", [ v "x" ]);
                ];
          ]
      in
      Structure.Instance.equal (chase (Datalog.Program.chase_rules p) d) (evaluate_naive p d))

(* A random range-restricted Datalog≠ program over E/2, A/1 (EDB) and
   P/1, Q/2 (IDB): 2–4 rules of 1–3 body atoms over the variables x, y,
   z and the constants c0, c1, the first atom an EDB one so that most
   rules fire, each rule with an inequality one time in three. *)
let random_program rng =
  let pick l = List.nth l (Random.State.int rng (List.length l)) in
  let term () =
    if Random.State.int rng 8 = 0 then c (pick [ "c0"; "c1" ]) else v (pick [ "x"; "y"; "z" ])
  in
  let atom rels =
    let r, n = pick rels in
    (r, List.init n (fun _ -> term ()))
  in
  let rule () =
    let edb = [ ("E", 2); ("A", 1) ] in
    let body =
      atom edb :: List.init (Random.State.int rng 3) (fun _ -> atom (edb @ [ ("P", 1); ("Q", 2) ]))
    in
    let bound =
      SSet.elements (List.fold_left (fun s (_, ts) -> SSet.union s (T.vars ts)) SSet.empty body)
    in
    let safe () = if bound = [] || Random.State.int rng 8 = 0 then c "c0" else v (pick bound) in
    let hr, ha = pick [ ("P", 1); ("Q", 2) ] in
    let neq = if Random.State.int rng 3 = 0 then [ Datalog.Program.Neq (safe (), safe ()) ] else [] in
    Datalog.Program.rule ~head:(hr, List.init ha (fun _ -> safe ()))
      ~body:(List.map (fun a -> Datalog.Program.Pos a) body @ neq)
  in
  Datalog.Program.make ~goal:"Q" (List.init (2 + Random.State.int rng 3) (fun _ -> rule ()))

let test_random_programs =
  QCheck.Test.make ~name:"chase = naive on random Datalog≠ programs" ~count:200
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let p = random_program rng in
      let signature = Logic.Signature.of_list [ ("E", 2); ("A", 1) ] in
      let d = Structure.Randgen.instance ~rng ~signature ~size:4 ~p:0.4 in
      let reference = evaluate_naive p d in
      Structure.Instance.equal (chase (Datalog.Program.chase_rules p) d) reference
      && Datalog.Program.answers p d
         = List.sort_uniq (List.compare Structure.Element.compare)
             (Structure.Instance.tuples "Q" reference))

let test_inequality () =
  (* goal(x) <- E(x,y), x != y. *)
  let p =
    Datalog.Program.make ~goal:"goal"
      [
        Datalog.Program.rule
          ~head:("goal", [ v "x" ])
          ~body:
            [
              Datalog.Program.Pos ("E", [ v "x"; v "y" ]);
              Datalog.Program.Neq (v "x", v "y");
            ];
      ]
  in
  let d = inst [ ("E", [ "a"; "a" ]); ("E", [ "b"; "c" ]) ] in
  check "only b" true (Datalog.Program.answers p d = [ [ e "b" ] ])

let test_unsafe_rejected () =
  check "unsafe head var" true
    (try
       ignore
         (Datalog.Program.rule ~head:("goal", [ v "x" ]) ~body:[]);
       false
     with Datalog.Program.Unsafe_rule _ -> true);
  check "unsafe neq var" true
    (try
       ignore
         (Datalog.Program.rule
            ~head:("goal", [ v "x" ])
            ~body:
              [
                Datalog.Program.Pos ("A", [ v "x" ]);
                Datalog.Program.Neq (v "x", v "z");
              ]);
       false
     with Datalog.Program.Unsafe_rule _ -> true)

let test_constants_in_rules () =
  let rules =
    [ Reasoner.Chase.rule ~body:[ ("E", [ v "x"; c "b" ]) ] ~head:[ ("goal", [ v "x" ]) ] () ]
  in
  let d = inst [ ("E", [ "a"; "b" ]); ("E", [ "c"; "d" ]) ] in
  check "one answer" true (Structure.Instance.tuples "goal" (chase rules d) = [ [ e "a" ] ])

let test_same_generation () =
  (* same-generation: a classic nonlinear program *)
  let sg =
    [
      Reasoner.Chase.rule ~body:[ ("Node", [ v "x" ]) ] ~head:[ ("SG", [ v "x"; v "x" ]) ] ();
      Reasoner.Chase.rule
        ~body:[ ("Par", [ v "x"; v "u" ]); ("SG", [ v "u"; v "w" ]); ("Par", [ v "y"; v "w" ]) ]
        ~head:[ ("SG", [ v "x"; v "y" ]) ]
        ();
      Reasoner.Chase.rule
        ~body:[ ("SG", [ v "x"; v "y" ]) ]
        ~neq:[ (v "x", v "y") ]
        ~head:[ ("goal", [ v "x"; v "y" ]) ]
        ();
    ]
  in
  (* a tree: r with children c1 c2; c1 with child g1; c2 with child g2 *)
  let d =
    inst
      [
        ("Node", [ "r" ]); ("Node", [ "c1" ]); ("Node", [ "c2" ]);
        ("Node", [ "g1" ]); ("Node", [ "g2" ]);
        ("Par", [ "c1"; "r" ]); ("Par", [ "c2"; "r" ]);
        ("Par", [ "g1"; "c1" ]); ("Par", [ "g2"; "c2" ]);
      ]
  in
  let t = chase sg d in
  check "cousins same generation" true (has t "goal" [ e "g1"; e "g2" ]);
  check "different generations" false (has t "goal" [ e "g1"; e "c2" ]);
  check "no goal on the diagonal" false (has t "goal" [ e "g1"; e "g1" ]);
  Alcotest.(check int) "goal pairs" 4 (List.length (Structure.Instance.tuples "goal" t))

(* A program prints one rule per line, however many atoms a body has. *)
let test_pp_one_line_per_rule () =
  let p =
    Datalog.Program.make ~goal:"goal"
      [
        Datalog.Program.rule
          ~head:("goal", [ v "x" ])
          ~body:
            [
              Datalog.Program.Pos ("R", [ v "x"; v "y" ]);
              Datalog.Program.Pos ("B", [ v "y" ]);
            ];
        Datalog.Program.rule
          ~head:("P", [ v "x"; v "z" ])
          ~body:
            [
              Datalog.Program.Pos ("R", [ v "x"; v "y" ]);
              Datalog.Program.Pos ("R", [ v "y"; v "z" ]);
              Datalog.Program.Neq (v "x", v "z");
            ];
      ]
  in
  Alcotest.(check string)
    "one line per rule"
    "goal(x) <- R(x, y), B(y)\nP(x, z) <- R(x, y), R(y, z), x != z"
    (Fmt.str "%a" Datalog.Program.pp p)

let suite =
  [
    Alcotest.test_case "transitive_closure" `Quick test_transitive_closure;
    QCheck_alcotest.to_alcotest test_seminaive_vs_naive;
    QCheck_alcotest.to_alcotest test_random_programs;
    Alcotest.test_case "inequality" `Quick test_inequality;
    Alcotest.test_case "unsafe_rejected" `Quick test_unsafe_rejected;
    Alcotest.test_case "constants_in_rules" `Quick test_constants_in_rules;
    Alcotest.test_case "same_generation" `Quick test_same_generation;
    Alcotest.test_case "pp_one_line_per_rule" `Quick test_pp_one_line_per_rule;
  ]
