open Helpers

let check = Alcotest.(check bool)

let omq_union =
  Omq.of_cq o_hand_union
    (cq ~name:"thumb" ~answer:[ "x" ] [ ("Thumb", [ v "x" ]) ])

let hand_instance =
  inst
    (("Hand", [ "h" ])
    :: List.map (fun f -> ("hasFinger", [ "h"; f ])) [ "f1"; "f2"; "f3"; "f4"; "f5" ])

let test_certain_answers () =
  check "consistent" true
    (Omq.Session.is_consistent (Omq.open_session omq_union hand_instance));
  Alcotest.(check int) "no certain thumbs" 0
    (List.length (Omq.certain_answers ~max_extra:1 omq_union hand_instance))

let test_classify () =
  let ev = Omq.classify omq_union in
  check "dichotomy fragment" true
    (ev.Classify.Landscape.status = Classify.Landscape.Dichotomy);
  match Omq.fragment omq_union with
  | Some d -> check "uGC2" true d.Gf.Fragment.counting
  | None -> Alcotest.fail "expected a uGC2 descriptor"

let test_materializability () =
  check "union not materializable on the hand" false
    (Omq.materializable_on ~max_model_extra:1 ~max_extra:1 omq_union hand_instance)

let test_rewritten () =
  let omq = Omq.of_cq o_horn (cq ~name:"qc" ~answer:[ "x" ] [ ("C", [ v "x" ]) ]) in
  let d = inst [ ("A", [ "a" ]); ("R", [ "a"; "b" ]) ] in
  let ok = Alcotest.(check (result bool reject)) in
  ok "rewriting agrees" (Ok true) (Omq.rewritten_certain ~extra:2 omq d [ e "a" ]);
  ok "and refutes" (Ok false) (Omq.rewritten_certain ~extra:2 omq d [ e "b" ])

let suite =
  [
    Alcotest.test_case "certain_answers" `Quick test_certain_answers;
    Alcotest.test_case "classify" `Quick test_classify;
    Alcotest.test_case "materializability" `Quick test_materializability;
    Alcotest.test_case "rewritten" `Quick test_rewritten;
  ]
