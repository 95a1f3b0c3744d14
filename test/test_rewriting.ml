open Helpers
module F = Logic.Formula

let check = Alcotest.(check bool)

let qc = cq ~name:"qc" ~answer:[ "x" ] [ ("C", [ v "x" ]) ]
let d_horn = inst [ ("A", [ "a" ]); ("R", [ "a"; "b" ]) ]

let test_closure () =
  let cl = Rewriting.Typeprog.closure o_horn qc in
  check "closure nonempty" true (Rewriting.Typeprog.size cl > 10);
  (* ternary relations are rejected *)
  let bad = Logic.Ontology.make [ F.Forall ([ "x"; "y"; "z" ], F.Implies (atom "T" [ v "x"; v "y"; v "z" ], atom "A" [ v "x" ])) ] in
  check "ternary rejected" true
    (try
       ignore (Rewriting.Typeprog.closure bad qc);
       false
     with Rewriting.Typeprog.Not_two_variable _ -> true)

let test_agrees_on_horn () =
  (* Theorem 5: for unravelling-tolerant (here: Horn) ontologies the
     type-based rewriting computes the certain answers. *)
  List.iter
    (fun (el, expect) ->
      check
        (Printf.sprintf "C(%s)" (Structure.Element.to_string el))
        expect
        (Rewriting.Typeprog.entails ~extra:2 o_horn qc d_horn [ el ]);
      check "matches bounded certain answers" expect
        (Reasoner.Bounded.certain_cq ~max_extra:2 o_horn d_horn qc [ el ]))
    [ (e "a", true); (e "b", false) ]

let test_inconsistency_answers_all () =
  (* A ⊓ ¬A forced: the empty surviving set answers everything. *)
  let contradiction =
    Logic.Ontology.make
      [ forall_eq "x"
          (F.Implies (atom "D" [ v "x" ], F.And (atom "A" [ v "x" ], F.Not (atom "A" [ v "x" ])))) ]
  in
  let d = inst [ ("D", [ "a" ]); ("R", [ "a"; "b" ]) ] in
  check "everything certain" true
    (Rewriting.Typeprog.entails ~extra:1 contradiction qc d [ e "b" ])

(* Example 6: the rewriting computes the unravelling side of
   Definition 3 — E(a) is refuted on the unravelled triangle even though
   it is certain on the triangle itself. *)
let example6 =
  let phi x = F.Exists ([ "y" ], F.And (atom "R" [ v x; v "y" ], atom "A" [ v "y" ])) in
  let phi_neg x =
    F.Exists ([ "y" ], F.And (atom "R" [ v x; v "y" ], F.Not (atom "A" [ v "y" ])))
  in
  Logic.Ontology.make
    [
      forall_eq "x" (F.Implies (atom "A" [ v "x" ], F.Implies (phi "x", atom "E" [ v "x" ])));
      forall_eq "x"
        (F.Implies (F.Not (atom "A" [ v "x" ]), F.Implies (phi_neg "x", atom "E" [ v "x" ])));
      F.Forall
        ( [ "x"; "y" ],
          F.Implies (atom "R" [ v "x"; v "y" ], F.Implies (atom "E" [ v "x" ], atom "E" [ v "y" ])) );
      F.Forall
        ( [ "x"; "y" ],
          F.Implies (atom "R" [ v "x"; v "y" ], F.Implies (atom "E" [ v "y" ], atom "E" [ v "x" ])) );
    ]

let test_example6_unravelling_side () =
  let tri = inst [ ("R", [ "a"; "b" ]); ("R", [ "b"; "c" ]); ("R", [ "c"; "a" ]) ] in
  let qe = cq ~name:"qe" ~answer:[ "x" ] [ ("E", [ v "x" ]) ] in
  check "certain on the triangle" true
    (Reasoner.Bounded.certain_cq ~max_extra:0 example6 tri qe [ e "a" ]);
  check "rewriting computes the unravelling side" false
    (Rewriting.Typeprog.entails ~extra:1 example6 qe tri [ e "a" ])

let test_statistics () =
  let st = Rewriting.Typeprog.run ~extra:1 o_horn qc d_horn in
  let tuples, survivors = Rewriting.Typeprog.statistics st in
  Alcotest.(check int) "one guarded pair" 1 tuples;
  check "some survivors" true (survivors > 0)

(* o_horn has 644 realizable types at extra 1 (the larger of its binary
   and unary counts). A limit of exactly 644 is not a truncation and
   answers as usual. A smaller one drops types, and pruning over the
   rest can claim a wrong "certain" (unchecked, limit 4 makes C(b)
   certain), so reaching the limit is a typed failure instead of a
   verdict. *)
let test_type_limit () =
  let entails ~limit el =
    Rewriting.Typeprog.entails ~extra:1 ~limit o_horn qc d_horn [ e el ]
  in
  check "limit = type count: C(a)" true (entails ~limit:644 "a");
  check "limit = type count: not C(b)" false (entails ~limit:644 "b");
  List.iter
    (fun (limit, el) ->
      check
        (Printf.sprintf "limit %d fails on C(%s)" limit el)
        true
        (match entails ~limit el with
        | _ -> false
        | exception Rewriting.Typeprog.Too_many_types l -> l = limit))
    [ (4, "b"); (643, "a"); (643, "b") ]

let suite =
  [
    Alcotest.test_case "closure" `Quick test_closure;
    Alcotest.test_case "agrees_on_horn" `Quick test_agrees_on_horn;
    Alcotest.test_case "inconsistency_answers_all" `Quick test_inconsistency_answers_all;
    Alcotest.test_case "example6_unravelling_side" `Quick test_example6_unravelling_side;
    Alcotest.test_case "statistics" `Quick test_statistics;
    Alcotest.test_case "type_limit" `Quick test_type_limit;
  ]
