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
  Omq.Session.evaluate budget (Omq.open_session ~max_extra:1 omq_disj d_disj)

let fresh_expected () = Omq.certain_answers ~max_extra:1 omq_disj d_disj

let subset_of ~expected certified =
  List.for_all (fun t -> List.mem t expected) certified

(* --------------------------------------------------------------- *)

let test_unbudgeted_unchanged () =
  let expected = fresh_expected () in
  check Alcotest.bool "has answers" true (expected <> []);
  match eval Budget.unlimited with
  | `Ok a ->
      check Alcotest.bool "consistent" true a.Omq.consistent;
      check answers "unlimited budget = plain run" expected a.answers
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

(* The checkpoints a fresh session passes are a function of its input
   alone: the same count on a domain that has run nothing as on the
   calling domain after warm-up work on the same ontology and data. So
   an index found by counting one fresh session is a trip point of
   every other. *)
let checkpoints_of_fresh_session () =
  let obs = Budget.observer () in
  ignore (eval obs);
  Budget.checkpoints obs

let test_checkpoints_history_free () =
  let cold = Domain.join (Domain.spawn checkpoints_of_fresh_session) in
  ignore (fresh_expected ());
  let warm = checkpoints_of_fresh_session () in
  let again = checkpoints_of_fresh_session () in
  check Alcotest.int "warm domain = fresh domain" cold warm;
  check Alcotest.int "second fresh session = first" warm again

(* THE sweep: inject exhaustion at every cancellation point the
   workload passes, in the consistency check and in the candidate loop.
   Each injection must (a) produce a typed outcome whose certified
   tuples are sound and which names where to resume (the query has
   candidates, so there is always one left to decide), and (b) leave
   every structure the session shares (its engine's bounds, solver
   state, grounder tables) able to answer the unbudgeted query
   exactly. *)
let test_inject_everywhere () =
  let expected = fresh_expected () in
  let obs = Budget.observer () in
  ignore (eval obs);
  let n = Budget.checkpoints obs in
  check Alcotest.bool "enough checkpoints to sweep" true (n > 10);
  for i = 0 to n - 1 do
    let s = Omq.open_session ~max_extra:1 omq_disj d_disj in
    let b = Budget.inject_after i in
    (match Omq.Session.evaluate b s with
    | `Ok _ ->
        Alcotest.failf "inject %d completed: checkpoint %d of %d never came"
          i i n
    | `Timeout _ -> Alcotest.failf "inject %d tripped with Timeout" i
    | `Out_of_fuel p ->
        check Alcotest.bool
          (Printf.sprintf "inject %d: certified sound" i)
          true
          (subset_of ~expected p.Omq.certified);
        check Alcotest.bool
          (Printf.sprintf "inject %d: names where to resume" i)
          true
          (Option.is_some p.resume_from));
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
  (match Omq.Session.evaluate (Budget.create ~timeout:0.0 ()) s with
  | `Timeout p ->
      check Alcotest.bool "nothing certified under a dead deadline" true
        (p.Omq.certified = [])
  | `Ok _ -> Alcotest.fail "a 0-second deadline must trip"
  | `Out_of_fuel _ -> Alcotest.fail "deadline trips are Timeout");
  let st = Omq.Session.stats s in
  check Alcotest.int "timeout trip counted in stats" 1
    st.Reasoner.Stats.budget_timeouts;
  check Alcotest.int "no fuel trip" 0 st.Reasoner.Stats.budget_fuel_trips

let test_fuel_exhaustion () =
  let s = Omq.open_session ~max_extra:1 omq_disj d_disj in
  (match Omq.Session.evaluate (Budget.create ~fuel:1 ()) s with
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

(* A(x) → ∃y. R(x,y) ∧ A(y) has no finite chase: the budget is its only
   bound. Each trigger debits one unit of fuel, so a fuel budget trips
   it, and a larger budget completes more rounds of the same chase. *)
let test_chase_fuel () =
  let rules =
    [
      Reasoner.Chase.rule ~name:"succ"
        ~body:[ ("A", [ v "x" ]) ]
        ~head:[ ("R", [ v "x"; v "y" ]); ("A", [ v "y" ]) ]
        ();
    ]
  in
  let d = inst [ ("A", [ "a" ]) ] in
  let partial fuel =
    match Reasoner.Chase.try_run (Budget.create ~fuel ()) rules d with
    | `Out_of_fuel r -> r.Reasoner.Chase.instance
    | `Timeout _ -> Alcotest.fail "a fuel budget reports Out_of_fuel"
    | `Ok _ -> Alcotest.failf "fuel %d: the infinite chase must trip" fuel
  in
  let small = partial 100 and large = partial 200 in
  check Alcotest.bool "the partial contains D" true (Structure.Instance.subset d small);
  check Alcotest.bool "a larger budget extends the partial" true
    (Structure.Instance.subset small large);
  check Alcotest.int "one R-step per unit of fuel" 100
    (List.length (Structure.Instance.tuples "R" small))

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
    Alcotest.test_case "checkpoints_history_free" `Quick
      test_checkpoints_history_free;
    Alcotest.test_case "inject_everywhere" `Slow test_inject_everywhere;
    Alcotest.test_case "inject_timeout_reason" `Quick test_inject_timeout_reason;
    Alcotest.test_case "expired_deadline" `Quick test_expired_deadline;
    Alcotest.test_case "fuel_exhaustion" `Quick test_fuel_exhaustion;
    Alcotest.test_case "clause_cap" `Quick test_clause_cap;
    Alcotest.test_case "material_inject_sweep" `Slow test_material_try;
    Alcotest.test_case "chase_inject_sweep" `Quick test_chase_try;
    Alcotest.test_case "chase_fuel_partial" `Quick test_chase_fuel;
    Alcotest.test_case "decide_inject" `Quick test_decide_try;
  ]
