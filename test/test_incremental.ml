(* The incremental update engine, at every layer:

   - Datalog≠: random insert/retract interleavings on random instances,
     the delta-maintained state must answer identically to [evaluate]
     from scratch after every step, for counting (nonrecursive) and
     DRed (recursive) deletion strategies alike.
   - Reasoner.Engine: dynamic (assumption-backed) engines answer like a
     fresh engine after each delta, and refuse ([`Needs_rebuild]) the
     cases the grounding cannot absorb.
   - Omq.Session: updatable sessions delta-maintain or reopen, and
     either way answer like a session opened cold on the net instance. *)

open Helpers

module S = Datalog.Seminaive

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ---------------------------------------------------------------- *)
(* Programs spanning both deletion strategies *)

let nonrec_join =
  (* goal(x) <- E(x,y), A(y), x != y : two-stage, nonrecursive *)
  Datalog.Program.make ~goal:"goal"
    [
      Datalog.Program.rule
        ~head:("S", [ v "x"; v "y" ])
        ~body:
          [
            Datalog.Program.Pos ("E", [ v "x"; v "y" ]);
            Datalog.Program.Pos ("A", [ v "y" ]);
          ];
      Datalog.Program.rule
        ~head:("goal", [ v "x" ])
        ~body:
          [
            Datalog.Program.Pos ("S", [ v "x"; v "y" ]);
            Datalog.Program.Neq (v "x", v "y");
          ];
    ]

let tc =
  (* transitive closure: linear recursion *)
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
            Datalog.Program.Pos ("E", [ v "y"; v "z" ]);
          ];
      Datalog.Program.rule
        ~head:("goal", [ v "x"; v "y" ])
        ~body:[ Datalog.Program.Pos ("T", [ v "x"; v "y" ]) ];
    ]

let sg =
  (* same-generation: nonlinear recursion *)
  Datalog.Program.make ~goal:"goal"
    [
      Datalog.Program.rule
        ~head:("SG", [ v "x"; v "x" ])
        ~body:[ Datalog.Program.Pos ("A", [ v "x" ]) ];
      Datalog.Program.rule
        ~head:("SG", [ v "x"; v "y" ])
        ~body:
          [
            Datalog.Program.Pos ("E", [ v "x"; v "u" ]);
            Datalog.Program.Pos ("SG", [ v "u"; v "w" ]);
            Datalog.Program.Pos ("E", [ v "y"; v "w" ]);
          ];
      Datalog.Program.rule
        ~head:("goal", [ v "x"; v "y" ])
        ~body:[ Datalog.Program.Pos ("SG", [ v "x"; v "y" ]) ];
    ]

let test_strategy_dispatch () =
  check "join is nonrecursive" false (S.recursive nonrec_join);
  check "tc is recursive" true (S.recursive tc);
  check "sg is recursive" true (S.recursive sg);
  let d = inst [ ("E", [ "a"; "b" ]); ("A", [ "b" ]) ] in
  check "join counts" true (S.state_strategy (S.prepare nonrec_join d) = S.Counting);
  check "tc dreds" true (S.state_strategy (S.prepare tc d) = S.Dred)

(* ---------------------------------------------------------------- *)
(* Equivalence property: incremental == from-scratch after every step *)

let universe = Array.init 5 (fun i -> Printf.sprintf "n%d" i)

let gen_fact rng : Structure.Instance.fact =
  let el () = e universe.(Random.State.int rng (Array.length universe)) in
  if Random.State.bool rng then { rel = "E"; args = [ el (); el () ] }
  else { rel = "A"; args = [ el () ] }

(* One step: insert or retract a small batch of random facts (retracts
   are drawn half from the current EDB so they actually hit). *)
let step rng st edb =
  let batch = List.init (1 + Random.State.int rng 3) (fun _ -> gen_fact rng) in
  if Random.State.bool rng then
    let st, _ = S.insert st batch in
    (st, List.fold_left (fun d f -> Structure.Instance.add_fact f d) edb batch)
  else
    let present = Structure.Instance.facts edb in
    let batch =
      if present = [] || Random.State.bool rng then batch
      else List.nth present (Random.State.int rng (List.length present)) :: batch
    in
    let st, _ = S.retract st batch in
    (st, List.fold_left (fun d f -> Structure.Instance.remove_fact f d) edb batch)

let interleaving_agrees program =
  QCheck.Test.make ~count:60
    ~name:
      (Printf.sprintf "insert/retract interleaving (%s)"
         (if S.recursive program then "recursive" else "nonrecursive"))
    QCheck.(int_bound 100000)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let edb0 =
        Structure.Instance.of_facts
          (List.init (Random.State.int rng 8) (fun _ -> gen_fact rng))
      in
      let st = ref (S.prepare program edb0) in
      let edb = ref edb0 in
      let ok = ref true in
      for _ = 1 to 6 do
        let st', edb' = step rng !st !edb in
        st := st';
        edb := edb';
        ok :=
          !ok
          && Structure.Instance.equal (S.state_edb st') edb'
          && Structure.Instance.equal (S.state_derived st')
               (S.evaluate program edb')
          && S.state_answers st' = S.answers program edb'
      done;
      !ok)

(* The changed flag must be exact: it is what tells a caller whether
   cached answers can be kept. *)
let test_changed_flag () =
  let d = inst [ ("E", [ "a"; "b" ]); ("A", [ "b" ]) ] in
  let st = S.prepare nonrec_join d in
  let st, changed = S.insert st [ { rel = "E"; args = [ e "b"; e "a" ] } ] in
  check "E(b,a) alone adds no answer (A(a) missing)" false changed;
  let st, changed = S.insert st [ { rel = "A"; args = [ e "a" ] } ] in
  check "A(a) completes goal(b)" true changed;
  let st, changed = S.retract st [ { rel = "A"; args = [ e "a" ] } ] in
  check "retracting A(a) loses goal(b)" true changed;
  let _, changed = S.retract st [ { rel = "A"; args = [ e "zzz" ] } ] in
  check "absent fact is a no-op" false changed

(* ---------------------------------------------------------------- *)
(* Reasoner.Engine: dynamic sessions *)

let fact rel args : Structure.Instance.fact = { rel; args = List.map e args }
let qc = ucq [ cq ~name:"qc" ~answer:[ "x" ] [ ("C", [ v "x" ]) ] ]

let horn_data = inst [ ("A", [ "a" ]); ("R", [ "a"; "b" ]) ]

let engine_answers eng =
  List.filter
    (fun x -> Reasoner.Engine.certain_ucq eng qc [ x ])
    (List.map e [ "a"; "b" ])

let fresh_answers d =
  engine_answers (Reasoner.Engine.create ~extra:2 o_horn d)

let test_engine_delta () =
  let eng = Reasoner.Engine.create ~dynamic:true ~extra:2 o_horn horn_data in
  check "dynamic" true (Reasoner.Engine.is_dynamic eng);
  check "static by default" false
    (Reasoner.Engine.is_dynamic (Reasoner.Engine.create ~extra:2 o_horn horn_data));
  check "base answers agree" true
    (engine_answers eng = fresh_answers horn_data);
  (* insert over the existing domain: delta *)
  let b_fact = fact "B" [ "b" ] in
  check "insert B(b) is a delta" true
    (Reasoner.Engine.insert_facts eng [ b_fact ] = `Delta);
  let d1 = Structure.Instance.add_fact b_fact horn_data in
  check "instance tracked" true
    (Structure.Instance.equal (Reasoner.Engine.instance eng) d1);
  check "post-insert answers agree" true (engine_answers eng = fresh_answers d1);
  (* retract it again: b keeps R(a,b), so no element vacates *)
  check "retract B(b) is a delta" true
    (Reasoner.Engine.retract_facts eng [ b_fact ] = `Delta);
  check "post-retract answers agree" true
    (engine_answers eng = fresh_answers horn_data);
  check "consistent throughout" true (Reasoner.Engine.is_consistent eng)

let test_engine_needs_rebuild () =
  let eng = Reasoner.Engine.create ~dynamic:true ~extra:2 o_horn horn_data in
  check "new element forces rebuild" true
    (Reasoner.Engine.insert_facts eng [ fact "A" [ "fresh" ] ] = `Needs_rebuild);
  check "vacating retraction forces rebuild" true
    (Reasoner.Engine.retract_facts eng [ fact "R" [ "a"; "b" ] ]
    = `Needs_rebuild);
  check "rebuild refusals leave the engine intact" true
    (Structure.Instance.equal (Reasoner.Engine.instance eng) horn_data);
  let static = Reasoner.Engine.create ~extra:2 o_horn horn_data in
  check "static engines never delta" true
    (Reasoner.Engine.insert_facts static [ fact "B" [ "b" ] ] = `Needs_rebuild)

(* ---------------------------------------------------------------- *)
(* Omq.Session: updatable sessions *)

let omq_c = Omq.make o_horn qc

let session_agrees s d =
  Omq.Session.certain_answers s = Omq.certain_answers ~max_extra:2 omq_c d
  && Structure.Instance.equal (Omq.Session.instance s) d

let test_session_updates () =
  let s = Omq.open_session ~max_extra:2 ~updatable:true omq_c horn_data in
  check "updatable" true (Omq.Session.updatable s);
  check "base" true (session_agrees s horn_data);
  (* force the engines first so the delta path actually maintains them *)
  ignore (Omq.Session.certain_answers s);
  let b_fact = fact "B" [ "b" ] in
  let s1, how1 = Omq.Session.insert_facts s [ b_fact ] in
  check "in-domain insert is a delta" true (how1 = `Delta);
  check "insert agrees with cold session" true
    (session_agrees s1 (Structure.Instance.add_fact b_fact horn_data));
  let s2, how2 = Omq.Session.retract_facts s1 [ b_fact ] in
  check "non-vacating retract is a delta" true (how2 = `Delta);
  check "retract agrees with cold session" true (session_agrees s2 horn_data);
  (* new element: reopened, but still correct *)
  let c_fact = fact "A" [ "c" ] in
  let s3, how3 = Omq.Session.insert_facts s2 [ c_fact ] in
  check "new-element insert reopens" true (how3 = `Reopen);
  check "reopen agrees" true
    (session_agrees s3 (Structure.Instance.add_fact c_fact horn_data));
  check "reopened session stays updatable" true (Omq.Session.updatable s3);
  (* vacating retraction: reopened *)
  let s4, how4 = Omq.Session.retract_facts s3 [ c_fact ] in
  check "vacating retract reopens" true (how4 = `Reopen);
  check "vacating retract agrees" true (session_agrees s4 horn_data);
  (* non-updatable sessions always reopen *)
  let s' = Omq.open_session ~max_extra:2 omq_c horn_data in
  let _, how' = Omq.Session.insert_facts s' [ b_fact ] in
  check "non-updatable insert reopens" true (how' = `Reopen)

let test_session_retract_to_empty () =
  let s = Omq.open_session ~max_extra:2 ~updatable:true omq_c horn_data in
  let s, _ =
    Omq.Session.retract_facts s
      [ fact "A" [ "a" ]; fact "R" [ "a"; "b" ] ]
  in
  check_int "all facts gone" 0
    (Structure.Instance.cardinal (Omq.Session.instance s));
  check "empty instance answers" true
    (Omq.Session.certain_answers s = [])

let suite =
  [
    Alcotest.test_case "strategy dispatch" `Quick test_strategy_dispatch;
    QCheck_alcotest.to_alcotest (interleaving_agrees nonrec_join);
    QCheck_alcotest.to_alcotest (interleaving_agrees tc);
    QCheck_alcotest.to_alcotest (interleaving_agrees sg);
    Alcotest.test_case "changed flag" `Quick test_changed_flag;
    Alcotest.test_case "engine delta" `Quick test_engine_delta;
    Alcotest.test_case "engine needs_rebuild" `Quick test_engine_needs_rebuild;
    Alcotest.test_case "session updates" `Quick test_session_updates;
    Alcotest.test_case "session retract to empty" `Quick
      test_session_retract_to_empty;
  ]
