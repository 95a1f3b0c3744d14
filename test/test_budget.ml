(* The resource governor: typed degradation and deterministic fault
   injection. The central property: tripping a budget at ANY
   cancellation point (a) surfaces as a typed outcome, never an escaped
   exception, and (b) never corrupts shared state — re-solving with the
   same (possibly mid-trip interrupted) session or engine and no budget
   gives exactly the unbudgeted verdict. *)

open Helpers
module Budget = Reasoner.Budget

let check = Alcotest.check
let element = Alcotest.testable Structure.Element.pp Structure.Element.equal
let answers = Alcotest.(list (list element))

(* A disjunctive workload: every D-element is certainly A-or-B, so the
   UCQ has three answers and the SAT core does real case splitting. *)
let omq_disj =
  Omq.make o_disj (Query.Parse.ucq_of_string "q(x) <- A(x) | q(x) <- B(x)")

let d_disj = inst [ ("D", [ "a" ]); ("D", [ "b" ]); ("A", [ "c" ]) ]

let eval budget =
  Omq.certain_answers_within budget ~max_extra:1 omq_disj d_disj

let fresh_expected () = Omq.certain_answers ~max_extra:1 omq_disj d_disj

let subset_of ~expected certified =
  List.for_all (fun t -> List.mem t expected) certified

(* --------------------------------------------------------------- *)

let test_unbudgeted_unchanged () =
  let expected = fresh_expected () in
  check Alcotest.bool "has answers" true (expected <> []);
  match eval Budget.unlimited with
  | `Ok a -> check answers "unlimited budget = plain run" expected a
  | `Timeout _ | `Out_of_fuel _ -> Alcotest.fail "unlimited budget tripped"

let test_observer_counts () =
  let obs = Budget.observer () in
  (match eval obs with
  | `Ok _ -> ()
  | _ -> Alcotest.fail "observer must never trip");
  check Alcotest.bool "workload passes checkpoints" true
    (Budget.checkpoints obs > 0);
  check Alcotest.int "unlimited never counts" 0
    (Budget.checkpoints Budget.unlimited)

(* THE sweep: inject exhaustion at every cancellation point the
   workload passes. Each injection must (a) produce a typed outcome
   whose certified tuples are sound, and (b) leave every structure the
   session shares (its engine's bounds, solver state, grounder tables)
   able to answer the unbudgeted query exactly. *)
let test_inject_everywhere () =
  let expected = fresh_expected () in
  let obs = Budget.observer () in
  ignore (eval obs);
  let n = Budget.checkpoints obs in
  check Alcotest.bool "enough checkpoints to sweep" true (n > 10);
  for i = 0 to n - 1 do
    let s = Omq.open_session ~max_extra:1 omq_disj d_disj in
    let b = Budget.inject_after i in
    (match Omq.Session.certain_answers_within b s with
    | `Ok a ->
        (* the trip can only be missed if the grounding memo shifted
           the path; the answer must still be exact *)
        check answers (Printf.sprintf "inject %d completed" i) expected a
    | `Timeout _ -> Alcotest.failf "inject %d tripped with Timeout" i
    | `Out_of_fuel p ->
        check Alcotest.bool
          (Printf.sprintf "inject %d: certified sound" i)
          true
          (subset_of ~expected p.Omq.Session.certified));
    (* session reuse AFTER the trip: the interrupted engine must answer
       like a fresh one *)
    let after = Omq.Session.certain_answers s in
    check answers
      (Printf.sprintf "inject %d: post-trip resolve exact" i)
      expected after
  done

let test_inject_timeout_reason () =
  match eval (Budget.inject_after ~reason:Budget.Timeout 5) with
  | `Timeout _ -> ()
  | `Ok _ -> Alcotest.fail "expected a trip"
  | `Out_of_fuel _ -> Alcotest.fail "expected a Timeout trip"

(* A trip is counted once, in the stats of the session it tripped. *)
let test_expired_deadline () =
  let s = Omq.open_session ~max_extra:1 omq_disj d_disj in
  (match Omq.Session.certain_answers_within (Budget.create ~timeout:0.0 ()) s with
  | `Timeout p ->
      check Alcotest.bool "nothing certified under a dead deadline" true
        (p.Omq.Session.certified = [])
  | `Ok _ -> Alcotest.fail "a 0-second deadline must trip"
  | `Out_of_fuel _ -> Alcotest.fail "deadline trips are Timeout");
  let st = Omq.Session.stats s in
  check Alcotest.int "timeout trip counted in stats" 1
    st.Reasoner.Stats.budget_timeouts;
  check Alcotest.int "no fuel trip" 0 st.Reasoner.Stats.budget_fuel_trips

let test_fuel_exhaustion () =
  let s = Omq.open_session ~max_extra:1 omq_disj d_disj in
  (match Omq.Session.certain_answers_within (Budget.create ~fuel:1 ()) s with
  | `Out_of_fuel _ -> ()
  | `Ok _ -> Alcotest.fail "1 unit of fuel must not complete the eval"
  | `Timeout _ -> Alcotest.fail "fuel trips are Out_of_fuel");
  let st = Omq.Session.stats s in
  check Alcotest.int "fuel trip counted in stats" 1
    st.Reasoner.Stats.budget_fuel_trips;
  check Alcotest.int "no timeout trip" 0 st.Reasoner.Stats.budget_timeouts

let test_clause_cap () =
  match eval (Budget.create ~max_clauses:5 ()) with
  | `Out_of_fuel _ -> ()
  | `Ok _ -> Alcotest.fail "a 5-clause cap must not fit the grounding"
  | `Timeout _ -> Alcotest.fail "clause-cap trips are Out_of_fuel"

(* --------------------------------------------------------------- *)
(* Material verdicts run on the caller's engine: a trip anywhere in a
   disjunction-property check leaves that engine answering the next
   unbudgeted check exactly. *)

let qa = cq ~answer:[ "x" ] [ ("A", [ v "x" ]) ]
let qb = cq ~answer:[ "x" ] [ ("B", [ v "x" ]) ]

let test_material_try () =
  let d = inst [ ("D", [ "a" ]) ] in
  let fresh () = Reasoner.Engine.create o_disj d in
  let disj eng budget =
    match
      Material.Disjunction.check ~budget ~max_extra:1 eng
        [ (qa, [ e "a" ]); (qb, [ e "a" ]) ]
    with
    | `Holds -> "holds"
    | `Fails _ -> "fails"
    | `Disjunction_not_certain -> "not certain"
  in
  let expected = disj (fresh ()) Budget.unlimited in
  check Alcotest.string "A ∨ B certain, neither disjunct" "fails" expected;
  let obs = Budget.observer () in
  check Alcotest.string "observer run" expected (disj (fresh ()) obs);
  let n = Budget.checkpoints obs in
  check Alcotest.bool "material workload passes checkpoints" true (n > 0);
  for i = 0 to n - 1 do
    let eng = fresh () in
    (match disj eng (Budget.inject_after i) with
    | v -> check Alcotest.string (Printf.sprintf "inject %d: verdict" i) expected v
    | exception Budget.Exhausted _ -> ());
    check Alcotest.string
      (Printf.sprintf "inject %d: next unbudgeted check" i)
      expected (disj eng Budget.unlimited)
  done

(* --------------------------------------------------------------- *)
(* Chase: partial results are sound under-approximations. *)

let test_chase_try () =
  let rules =
    [
      Reasoner.Chase.rule ~name:"ab"
        ~body:[ ("A", [ v "x" ]) ]
        ~head:[ ("R", [ v "x"; v "y" ]); ("B", [ v "y" ]) ]
        ();
      Reasoner.Chase.rule ~name:"rc"
        ~body:[ ("R", [ v "x"; v "y" ]); ("B", [ v "y" ]) ]
        ~head:[ ("C", [ v "x" ]) ]
        ();
    ]
  in
  let d = inst [ ("A", [ "a" ]); ("A", [ "b" ]) ] in
  let full = Reasoner.Chase.run rules d in
  check Alcotest.bool "chase saturates" true full.Reasoner.Chase.saturated;
  let obs = Budget.observer () in
  ignore (Reasoner.Chase.try_run obs rules d);
  let n = Budget.checkpoints obs in
  check Alcotest.bool "chase passes checkpoints" true (n > 0);
  for i = 0 to n - 1 do
    match Reasoner.Chase.try_run (Budget.inject_after i) rules d with
    | `Ok r ->
        check Alcotest.bool
          (Printf.sprintf "inject %d: completed chase agrees" i)
          true
          (Structure.Instance.subset r.Reasoner.Chase.instance
             full.Reasoner.Chase.instance
          && Structure.Instance.subset full.Reasoner.Chase.instance
               r.Reasoner.Chase.instance)
    | `Out_of_fuel r | `Timeout r ->
        check Alcotest.bool
          (Printf.sprintf "inject %d: partial chase is a sound prefix" i)
          true
          (Structure.Instance.subset d r.Reasoner.Chase.instance
          && Structure.Instance.subset r.Reasoner.Chase.instance
               full.Reasoner.Chase.instance)
  done

(* --------------------------------------------------------------- *)
(* Decide: the bouquet loop degrades to a checked-count. *)

let test_decide_try () =
  match
    Classify.Decide.try_decide (Budget.inject_after 2) ~samples:2
      ~max_outdegree:1 o_disj
  with
  | `Out_of_fuel checked ->
      check Alcotest.bool "some bouquets may have completed" true (checked >= 0)
  | `Timeout _ -> Alcotest.fail "fuel injection reports Out_of_fuel"
  | `Ok _ -> Alcotest.fail "injection at checkpoint 2 must trip decide"

let suite =
  [
    Alcotest.test_case "unbudgeted_unchanged" `Quick test_unbudgeted_unchanged;
    Alcotest.test_case "observer_counts" `Quick test_observer_counts;
    Alcotest.test_case "inject_everywhere" `Slow test_inject_everywhere;
    Alcotest.test_case "inject_timeout_reason" `Quick test_inject_timeout_reason;
    Alcotest.test_case "expired_deadline" `Quick test_expired_deadline;
    Alcotest.test_case "fuel_exhaustion" `Quick test_fuel_exhaustion;
    Alcotest.test_case "clause_cap" `Quick test_clause_cap;
    Alcotest.test_case "material_inject_sweep" `Slow test_material_try;
    Alcotest.test_case "chase_inject_sweep" `Quick test_chase_try;
    Alcotest.test_case "decide_inject" `Quick test_decide_try;
  ]
