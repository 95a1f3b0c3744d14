open Helpers
module F = Logic.Formula

let check = Alcotest.(check bool)

let test_disjunction_fails_for_union () =
  (* O1 ∪ O2 on a five-fingered hand: the thumb disjunction is certain
     but no disjunct is — non-materializability (Section 1). *)
  let fingers = [ "f1"; "f2"; "f3"; "f4"; "f5" ] in
  let d =
    inst (("Hand", [ "h" ]) :: List.map (fun f -> ("hasFinger", [ "h"; f ])) fingers)
  in
  let qt = cq ~answer:[ "x" ] [ ("Thumb", [ v "x" ]) ] in
  let pointed = List.map (fun f -> (qt, [ e f ])) fingers in
  let check_on o =
    Material.Disjunction.check ~max_extra:1 (Reasoner.Engine.create o d) pointed
  in
  (match check_on o_hand_union with
  | `Fails _ -> ()
  | `Holds -> Alcotest.fail "expected a violation"
  | `Disjunction_not_certain -> Alcotest.fail "disjunction should be certain");
  (* each component ontology alone has the property on this instance *)
  (match check_on o_hand_five with
  | `Disjunction_not_certain -> ()
  | _ -> Alcotest.fail "O1 alone should not entail the disjunction");
  match check_on o_hand_thumb with
  | `Disjunction_not_certain -> ()
  | _ -> Alcotest.fail "O2 alone should not entail the disjunction"

(* Whatever find_materialization returns must answer the pool exactly
   like the certain answers. *)
let check_materialization ?max_extra eng b =
  check "answers the pool like the certain answers" true
    (Material.Materializability.is_materialization_for ?max_extra eng
       (Material.Materializability.default_pool (Reasoner.Engine.ontology eng)
          (Reasoner.Engine.instance eng))
       b)

let test_materialization_horn () =
  (* Horn ontologies have materializations (the chase). *)
  let d = inst [ ("A", [ "a" ]) ] in
  let eng = Reasoner.Engine.create o_horn d in
  match Material.Materializability.find_materialization ~max_model_extra:2 eng with
  | None -> Alcotest.fail "expected a materialization"
  | Some b ->
      check "model of O" true
        (Structure.Modelcheck.is_model b (Logic.Ontology.all_sentences o_horn));
      check "contains D" true (Structure.Instance.subset d b);
      check_materialization eng b

let test_materialization_union_fails () =
  let fingers = [ "f1"; "f2"; "f3"; "f4"; "f5" ] in
  let d =
    inst (("Hand", [ "h" ]) :: List.map (fun f -> ("hasFinger", [ "h"; f ])) fingers)
  in
  let union = Reasoner.Engine.create o_hand_union d in
  let thumb = Reasoner.Engine.create o_hand_thumb d in
  check "O1 ∪ O2 not materializable on the 5-finger hand" false
    (Material.Materializability.materializable_on ~max_model_extra:1 ~max_extra:1
       union);
  check "O2 materializable on the same instance" true
    (Material.Materializability.materializable_on ~max_model_extra:1 ~max_extra:1
       thumb);
  let find eng =
    Material.Materializability.find_materialization ~max_model_extra:1
      ~max_extra:1 eng
  in
  check "no materialization for O1 ∪ O2" true (Option.is_none (find union));
  match find thumb with
  | None -> Alcotest.fail "expected a materialization for O2"
  | Some b -> check_materialization ~max_extra:1 thumb b

let test_disjunctive_not_materializable () =
  (* D ⊑ A ⊔ B with D(a). *)
  let d = inst [ ("D", [ "a" ]) ] in
  check "not materializable" false
    (Material.Materializability.materializable_on ~max_model_extra:1
       (Reasoner.Engine.create o_disj d));
  let w = Material.Disjunction.find_violation o_disj (Material.Disjunction.default_candidates o_disj d) in
  check "violation found by default candidates" true (Option.is_some w)

(* Example 6: odd R-cycles force E everywhere, but the unravelling (a
   chain) does not. *)
let example6_ontology =
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

let test_example6_not_tolerant () =
  let triangle =
    inst [ ("R", [ "a"; "b" ]); ("R", [ "b"; "c" ]); ("R", [ "c"; "a" ]) ]
  in
  let qe = cq ~answer:[ "x" ] [ ("E", [ v "x" ]) ] in
  (* E(a) is certain on the triangle (odd cycle): any A-labelling has a
     monochromatic R-edge. *)
  check "E certain on triangle" true
    (Reasoner.Bounded.certain_cq ~max_extra:0 example6_ontology triangle qe [ e "a" ]);
  (* but not on the unravelled chain *)
  let violations =
    Material.Tolerance.check_unary ~depth:3 ~max_extra:0 example6_ontology
      triangle qe
  in
  check "tolerance violated" true (violations <> []);
  List.iter
    (fun ((_, viol) : Structure.Element.t * Material.Tolerance.violation) ->
      check "certain on D" true viol.on_d;
      check "not certain on Du" false viol.on_du)
    violations

let test_horn_tolerant () =
  (* The Horn ontology is unravelling tolerant on a small instance. *)
  let d = inst [ ("A", [ "a" ]); ("R", [ "a"; "b" ]) ] in
  let qc = cq ~answer:[ "x" ] [ ("C", [ v "x" ]) ] in
  let violations =
    Material.Tolerance.check_unary ~depth:3 ~max_extra:1 o_horn d qc
  in
  check "no violation" true (violations = [])

let suite =
  [
    Alcotest.test_case "disjunction_fails_for_union" `Quick test_disjunction_fails_for_union;
    Alcotest.test_case "materialization_horn" `Quick test_materialization_horn;
    Alcotest.test_case "materialization_union_fails" `Quick test_materialization_union_fails;
    Alcotest.test_case "disjunctive_not_materializable" `Quick test_disjunctive_not_materializable;
    Alcotest.test_case "example6_not_tolerant" `Quick test_example6_not_tolerant;
    Alcotest.test_case "horn_tolerant" `Quick test_horn_tolerant;
  ]

(* Section 4: the uGF-unravelling is inappropriate for counting — the
   ontology O = {∀x (∃≥4 y R(x,y) → A(x))} on the depth-one tree of
   Example 5(2) satisfies O,Du ⊨ A(a-copy) under the uGF-unravelling
   (copies of the root accumulate unboundedly many successors) although
   O,D ⊭ A(a); the uGC2-unravelling (condition (c')) repairs this. *)
let o_counting =
  Logic.Ontology.make
    [ forall_eq "x"
        (F.Implies
           ( F.CountGeq (4, "y", atom "R" [ v "x"; v "y" ]),
             atom "A" [ v "x" ] ))
    ]

let test_counting_needs_ugc2_unravelling () =
  let d =
    inst [ ("R", [ "a"; "b1" ]); ("R", [ "a"; "b2" ]); ("R", [ "a"; "b3" ]) ]
  in
  let qa = cq ~answer:[ "x" ] [ ("A", [ v "x" ]) ] in
  check "A(a) not certain on D" false
    (Reasoner.Bounded.certain_cq ~max_extra:1 o_counting d qa [ e "a" ]);
  (match
     Material.Tolerance.check ~variant:Structure.Unravel.UGF ~depth:3
       ~max_extra:0 o_counting d qa [ e "a" ]
   with
  | Material.Tolerance.Violation viol ->
      check "certain on the uGF-unravelling" true viol.on_du;
      check "but not on D" false viol.on_d
  | Material.Tolerance.Tolerant_on ->
      Alcotest.fail "expected the uGF-unravelling to break counting"
  | Material.Tolerance.Not_guarded m -> Alcotest.fail m);
  match
    Material.Tolerance.check ~variant:Structure.Unravel.UGC2 ~depth:3
      ~max_extra:0 o_counting d qa [ e "a" ]
  with
  | Material.Tolerance.Tolerant_on -> ()
  | Material.Tolerance.Violation _ ->
      Alcotest.fail "the uGC2-unravelling must preserve successor counts"
  | Material.Tolerance.Not_guarded m -> Alcotest.fail m

let suite =
  suite
  @ [
      Alcotest.test_case "counting_needs_ugc2_unravelling" `Quick
        test_counting_needs_ugc2_unravelling;
    ]
