(* The incremental update engine, at every layer:

   - Reasoner.Engine: dynamic (assumption-backed) engines answer like a
     fresh engine after each delta, and refuse ([`Needs_rebuild]) the
     cases the grounding cannot absorb.
   - Omq.Session: updatable sessions delta-maintain or reopen, and
     either way answer like a session opened cold on the net instance —
     on fixed cases and on random insert/retract interleavings. *)

open Helpers

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ---------------------------------------------------------------- *)
(* Reasoner.Engine: dynamic sessions *)

let fact rel args : Structure.Instance.fact = { rel; args = List.map e args }
let qc = ucq [ cq ~name:"qc" ~answer:[ "x" ] [ ("C", [ v "x" ]) ] ]

let horn_data = inst [ ("A", [ "a" ]); ("R", [ "a"; "b" ]) ]

let engine_answers eng =
  List.filter
    (fun x -> Reasoner.Engine.certain_ucq ~max_extra:2 eng qc [ x ])
    (List.map e [ "a"; "b" ])

let fresh_answers d = engine_answers (Reasoner.Engine.create o_horn d)

let test_engine_delta () =
  let eng = Reasoner.Engine.create ~dynamic:true o_horn horn_data in
  check "dynamic" true (Reasoner.Engine.is_dynamic eng);
  check "static by default" false
    (Reasoner.Engine.is_dynamic (Reasoner.Engine.create o_horn horn_data));
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
  let eng = Reasoner.Engine.create ~dynamic:true o_horn horn_data in
  (* a grounded bound fixes the domain *)
  check "consistent" true (Reasoner.Engine.is_consistent eng);
  check "new element forces rebuild" true
    (Reasoner.Engine.insert_facts eng [ fact "A" [ "fresh" ] ] = `Needs_rebuild);
  check "vacating retraction forces rebuild" true
    (Reasoner.Engine.retract_facts eng [ fact "R" [ "a"; "b" ] ] = `Needs_rebuild);
  check "rebuild refusals leave the engine intact" true
    (Structure.Instance.equal (Reasoner.Engine.instance eng) horn_data);
  let static = Reasoner.Engine.create o_horn horn_data in
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

(* Random insert/retract interleavings on an updatable session: after
   every step it answers like a cold evaluation of the net instance, and
   a step that neither introduces nor vacates a domain element is
   absorbed as a delta. Inserts draw elements n0..n5 but the base
   instance only n0..n3, and retracts mostly hit present facts, so both
   reopen triggers occur. *)
let random_fact rng ~within : Structure.Instance.fact =
  let el () = e (Printf.sprintf "n%d" (Random.State.int rng within)) in
  match Random.State.int rng 3 with
  | 0 -> { rel = "A"; args = [ el () ] }
  | 1 -> { rel = "B"; args = [ el () ] }
  | _ -> { rel = "R"; args = [ el (); el () ] }

let test_session_interleaving =
  QCheck.Test.make ~count:40 ~name:"session insert/retract interleaving"
    QCheck.(int_bound 100_000)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let any_fact () = random_fact rng ~within:6 in
      let batch pick = List.init (1 + Random.State.int rng 3) (fun _ -> pick ()) in
      let step s d =
        if Random.State.bool rng then
          let facts = batch any_fact in
          ( Omq.Session.insert_facts s facts,
            List.fold_left (fun d f -> Structure.Instance.add_fact f d) d facts )
        else
          let present = Array.of_list (Structure.Instance.facts d) in
          let pick () =
            if present = [||] || Random.State.int rng 4 = 0 then any_fact ()
            else present.(Random.State.int rng (Array.length present))
          in
          let facts = batch pick in
          ( Omq.Session.retract_facts s facts,
            List.fold_left (fun d f -> Structure.Instance.remove_fact f d) d facts )
      in
      let d0 =
        Structure.Instance.of_facts
          (List.init (2 + Random.State.int rng 6) (fun _ ->
               random_fact rng ~within:4))
      in
      let s0 = Omq.open_session ~max_extra:2 ~updatable:true omq_c d0 in
      let rec go k s d =
        k = 0
        ||
        let (s', how), d' = step s d in
        let same_domain =
          Structure.Element.Set.equal (Structure.Instance.domain d)
            (Structure.Instance.domain d')
        in
        session_agrees s' d'
        && ((not same_domain) || how = `Delta)
        && go (k - 1) s' d'
      in
      session_agrees s0 d0 && go 5 s0 d0)

let suite =
  [
    Alcotest.test_case "engine delta" `Quick test_engine_delta;
    Alcotest.test_case "engine needs_rebuild" `Quick test_engine_needs_rebuild;
    Alcotest.test_case "session updates" `Quick test_session_updates;
    Alcotest.test_case "session retract to empty" `Quick
      test_session_retract_to_empty;
    QCheck_alcotest.to_alcotest test_session_interleaving;
  ]
