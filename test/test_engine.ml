(* The incremental engine (Reasoner.Engine) must be observationally
   equivalent to the one-shot Bounded reference at every bound, ground
   once per ceiling and only on demand, and account its work faithfully
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

(* A boolean CQ: some element is C. *)
let qsome = cq ~name:"qsome" ~answer:[] [ ("C", [ v "x" ]) ]

(* An ontology the activation encoding must relativise: the ⊤-guarded
   ∀x (A(x) ∨ B(x)) would, unrelativised, make every null A or B and so
   active at every bound; an existential with equality guard; and a
   functional role. *)
let o_active =
  Logic.Ontology.make ~functional:[ "R" ]
    [ F.Forall ([ "x" ], F.Or (atom "A" [ v "x" ], atom "B" [ v "x" ]));
      forall_eq "x"
        (F.Implies
           ( atom "A" [ v "x" ],
             F.Exists ([ "y" ], F.And (atom "R" [ v "x"; v "y" ], atom "C" [ v "y" ])) ));
      forall_eq "x" (F.Implies (atom "C" [ v "x" ], F.Not (atom "A" [ v "x" ])));
    ]

let sig_abcdr =
  Logic.Signature.of_list [ ("A", 1); ("B", 1); ("C", 1); ("D", 1); ("R", 2) ]

(* [eng] answers like Bounded on [o] and [d] at ceiling [max_extra]:
   consistency, the unary CQs, the UCQ and the disjunction at every
   element, and the boolean CQ. *)
let agrees_at eng o d max_extra =
  Bool.equal
    (Reasoner.Engine.is_consistent ~max_extra eng)
    (Reasoner.Bounded.is_consistent ~max_extra o d)
  && Bool.equal
       (Reasoner.Engine.certain_cq ~max_extra eng qsome [])
       (Reasoner.Bounded.certain_cq ~max_extra o d qsome [])
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
       (Structure.Instance.domain_list d)

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
          agrees_at (Reasoner.Engine.create o d) o d max_extra)
        [ (o_horn, d); (o_disj, d); (o_count, wide) ])

(* Nested ontologies, from DL text so that the translation reuses x
   and y under its equality-guarded outer ∀x (x = x → …): ∃∀∃ and
   ∀∃∀∃ alternations with inverse roles, and a counting node under a ∀.
   Each has quantifier nodes that omit a variable an enclosing
   quantifier binds, which the engine grounds once per binding of their
   free variables (shared Tseitin literals) and Bounded expands afresh
   under every enclosing binding. Over 9 elements (7 plus 2 nulls) the
   ≥ 3 node is wide (C(9,3) = 84 subsets), so its cardinality record
   sits inside a shared node. *)
let tbox_of lines =
  Dl.Translate.tbox (Dl.Parser.parse_tbox (String.concat "\n" lines))

let o_nested_alt =
  tbox_of
    [ "exists R . (B and exists R- . D) << C";
      "exists R . forall R . exists R- . A << B";
      "A << exists R . (D and forall R- . (A or C))" ]

let o_nested_deep =
  tbox_of
    [ "exists R . exists R- . exists R . exists R- . D << A";
      "B << forall R . exists R . forall R- . (C or D)" ]

let o_nested_count =
  tbox_of
    [ ">= 3 R . exists R . B << D";
      "exists R . >= 3 R- . A << B";
      "C << forall R . (D or >= 3 R . B)" ]

(* 1a. Engine and Bounded agree on the nested ontologies at every
   ceiling 0..2. *)
let test_engine_vs_bounded_nested =
  QCheck.Test.make ~name:"engine agrees with Bounded on nested ontologies" ~count:6
    QCheck.(pair (int_bound 100000) (int_range 0 2))
    (fun (seed, max_extra) ->
      let rng = Random.State.make [| seed |] in
      let d =
        Structure.Randgen.nonempty_instance ~rng ~signature:sig_abcdr ~size:3 ~p:0.35
      in
      let wide =
        Structure.Randgen.nonempty_instance ~rng ~signature:sig_abcdr ~size:7 ~p:0.3
      in
      List.for_all
        (fun (o, d) -> agrees_at (Reasoner.Engine.create o d) o d max_extra)
        [ (o_nested_alt, d); (o_nested_deep, d); (o_nested_count, wide) ])

(* data/corpus_instance.txt: an 18-element r0 ring with r1 chords and
   unary labels. *)
let corpus_instance =
  let el i = Printf.sprintf "e%d" i in
  let label c is = List.map (fun i -> (c, [ el i ])) is in
  inst
    (List.init 18 (fun i -> ("r0", [ el (i + 1); el (((i + 1) mod 18) + 1) ]))
    @ List.map
        (fun (a, b) -> ("r1", [ el a; el b ]))
        [ (1, 6); (4, 3); (7, 18); (10, 15); (13, 12); (16, 9) ]
    @ label "C0" [ 1; 3; 5; 7; 9; 11; 13; 15; 17 ]
    @ label "C1" [ 2; 5; 8; 11; 14; 17 ]
    @ label "C2" [ 1; 5; 9; 13; 17 ]
    @ label "C3" [ 3; 8; 13; 18 ])

(* 1a'. gen2017-020, the seed-2017 corpus's depth-3 item, whose plain
   expansion needs 7.58 M clauses, over the corpus instance at ceiling
   2: consistent, and the certain answers of q(x) <- r0(x,y), C1(y) are
   the six elements that already answer q on D. Each other element has
   a countermodel that contains D, fails q there and passes Modelcheck
   against O, so the verdict is checked by code other than the
   engine's. *)
let test_gen2017_020_checked () =
  let item = List.nth (Omq.Corpus.generate ~seed:2017 ~n:24 ()) 20 in
  let o = Dl.Translate.tbox item.Omq.Corpus.tbox in
  let d = corpus_instance in
  let q = cq ~name:"q" ~answer:[ "x" ] [ ("r0", [ v "x"; v "y" ]); ("C1", [ v "y" ]) ] in
  let eng = Reasoner.Engine.create o d in
  check "consistent" true (Reasoner.Engine.is_consistent ~max_extra:2 eng);
  let answers =
    List.filter
      (fun el -> Reasoner.Engine.certain_cq ~max_extra:2 eng q [ el ])
      (Structure.Instance.domain_list d)
  in
  Alcotest.(check (list string))
    "certain answers" [ "e1"; "e10"; "e13"; "e16"; "e4"; "e7" ]
    (List.sort compare (List.map (Fmt.str "%a" Structure.Element.pp) answers));
  check "every answer holds on D" true
    (List.for_all (fun el -> Query.Cq.holds d q [ el ]) answers);
  let sentences = Logic.Ontology.all_sentences o in
  List.iter
    (fun el ->
      if not (List.mem el answers) then
        match Reasoner.Engine.signed_model ~max_extra:2 eng [ (q, [ el ], false) ] with
        | None -> Alcotest.failf "no countermodel for %a" Structure.Element.pp el
        | Some m ->
            check "countermodel contains D" true (Structure.Instance.subset d m);
            check "countermodel fails q" false (Query.Cq.holds m q [ el ]);
            check "countermodel is a model of O" true
              (Structure.Modelcheck.is_model m sentences))
    (Structure.Instance.domain_list d)

(* 1b. One engine asked at mixed ceilings — a grounding at 2 answers at
   0 and 1 under activity assumptions, then 3 grounds again — agrees
   with Bounded at each, on the Horn, disjunctive, counting and
   relativised ontologies, and over an empty D. *)
let test_mixed_ceilings =
  QCheck.Test.make ~name:"engine agrees with Bounded at mixed ceilings" ~count:6
    QCheck.(int_bound 100000)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let d =
        Structure.Randgen.nonempty_instance ~rng ~signature:sig_abcdr ~size:3 ~p:0.3
      in
      List.for_all
        (fun (o, d) ->
          let eng = Reasoner.Engine.create o d in
          List.for_all (agrees_at eng o d) [ 2; 0; 1; 3 ])
        [ (o_horn, d); (o_disj, d); (o_count, d); (o_active, d);
          (o_active, Structure.Instance.empty); (o_horn, Structure.Instance.empty) ])

(* 1c. A signed model is found at the first bound Bounded finds a
   countermodel at: it has exactly that many nulls (over an empty D,
   bounds 0 and 1 are both one element), contains D, fails the query
   and is a model of O by Modelcheck. *)
let test_signed_model_first_bound =
  QCheck.Test.make ~name:"signed_model: first bound, checked model" ~count:6
    QCheck.(int_bound 100000)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let d =
        Structure.Randgen.nonempty_instance ~rng ~signature:sig_abcdr ~size:3 ~p:0.3
      in
      let pointed d =
        let dom = Structure.Instance.domain_list d in
        ((qsome, []) :: List.map (fun el -> (qc, [ el ])) dom)
        @ List.map (fun el -> (qa, [ el ])) dom
      in
      List.for_all
        (fun (o, d) ->
          let eng = Reasoner.Engine.create o d in
          List.for_all
            (fun (q, tuple) ->
              let first =
                List.find_opt
                  (fun extra ->
                    Option.is_some
                      (Reasoner.Bounded.countermodel ~extra o d
                         (Query.Ucq.of_cq q) tuple))
                  [ 0; 1; 2 ]
              in
              let model =
                Reasoner.Engine.signed_model ~max_extra:2 eng [ (q, tuple, false) ]
              in
              match (model, first) with
              | None, None -> true
              | Some m, Some k ->
                  Structure.Instance.domain_size m
                  = max 1 (Structure.Instance.domain_size d + k)
                  && Structure.Instance.subset d m
                  && (not (Query.Cq.holds m q tuple))
                  && Structure.Modelcheck.is_model m (Logic.Ontology.all_sentences o)
              | _ -> false)
            (pointed d))
        [ (o_horn, d); (o_disj, d); (o_active, d); (o_count, d);
          (o_active, Structure.Instance.empty) ])

(* 1d. A dynamic engine over random inserts and retracts, each followed
   by questions at a random ceiling, agrees with Bounded on the net
   instance. A refused delta is followed by a fresh engine on the
   updated instance, as sessions reopen. *)
let test_dynamic_mixed_ceilings =
  QCheck.Test.make ~count:6
    ~name:"dynamic engine agrees with Bounded over updates at mixed ceilings"
    QCheck.(int_bound 100000)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let d =
        Structure.Randgen.nonempty_instance ~rng ~signature:sig_abcdr ~size:3 ~p:0.3
      in
      let o = [| o_horn; o_disj; o_active |].(seed mod 3) in
      let dom = Structure.Instance.domain_list d in
      let pool =
        List.concat_map
          (fun (r, k) ->
            List.map (Structure.Instance.fact r) (Structure.Randgen.tuples dom k))
          (Logic.Signature.to_list sig_abcdr)
        |> Array.of_list
      in
      let eng = ref (Reasoner.Engine.create ~dynamic:true o d) in
      List.for_all
        (fun _ ->
          let f = pool.(Random.State.int rng (Array.length pool)) in
          let cur = Reasoner.Engine.instance !eng in
          let present = Structure.Instance.mem f cur in
          let how =
            if present then Reasoner.Engine.retract_facts !eng [ f ]
            else Reasoner.Engine.insert_facts !eng [ f ]
          in
          if how = `Needs_rebuild then
            eng :=
              Reasoner.Engine.create ~dynamic:true o
                (if present then Structure.Instance.remove_fact f cur
                 else Structure.Instance.add_fact f cur);
          let max_extra = [| 2; 0; 1; 3 |].(Random.State.int rng 4) in
          agrees_at !eng o (Reasoner.Engine.instance !eng) max_extra)
        (List.init 6 Fun.id))

(* 1e. The engine's wide counting nodes. Over 13 or more elements,
   C(13,2) = 78 > 64 subsets, so every [>= 2] and [<= 1] node grounds
   as one cardinality constraint in the engine's solver, while Bounded
   keeps the sequential-counter ladder. The ontologies have the corpus's
   counting shapes: [<= 1 R.Top] and [>= 2] on both sides of an
   inclusion (item 000), and counting under an existential and an
   inverse role (item 020). Instances are sparse in R, so an element has
   about one R-successor and the [<= 1] nodes bite both ways. A static
   and a dynamic engine (the latter over random inserts and retracts,
   reopened when a delta is refused) must agree with Bounded at mixed
   ceilings, and the countermodel the engine returns for a non-answer
   ([signed_model], a solve of the grounding whose models it keeps as
   witnesses) must contain D, fail the query, and pass Modelcheck
   against the full O. *)
let o_wide =
  List.map
    (fun text -> Dl.Translate.tbox (Dl.Parser.parse_tbox text))
    [ "A and D << <= 1 R . Top\n<= 1 R . Top << exists R . (B or C)\nB << >= 2 R . C";
      "A << exists R . (<= 1 R . Top)\n<= 1 R . Top << B or D\nC << exists R- . (>= 2 R . D)" ]

let wide_instance rng size =
  let name i = "w" ^ string_of_int i in
  let facts = ref [] in
  for i = 0 to size - 1 do
    List.iter
      (fun c -> if Random.State.int rng 4 = 0 then facts := (c, [ name i ]) :: !facts)
      [ "A"; "B"; "C"; "D" ];
    for j = 0 to size - 1 do
      if Random.State.int rng size = 0 then facts := ("R", [ name i; name j ]) :: !facts
    done
  done;
  (* every element occurs (E is no relation of O), so the domain has
     [size] elements *)
  inst (List.init size (fun i -> ("E", [ name i ])) @ !facts)

(* [agrees_at] on the elements [els] only (Bounded grounds the ladder
   afresh per bound and per question). *)
let agrees_on eng o d max_extra els =
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
           [ qa; qb; qc ]
         &&
         let pointed = [ (qa, [ el ]); (qb, [ el ]) ] in
         Bool.equal
           (Reasoner.Engine.certain_disjunction ~max_extra eng pointed)
           (Reasoner.Bounded.certain_disjunction ~max_extra o d pointed))
       els

let countermodels_check eng o max_extra els =
  let d = Reasoner.Engine.instance eng in
  List.for_all
    (fun el ->
      List.for_all
        (fun q ->
          Reasoner.Engine.certain_cq ~max_extra eng q [ el ]
          ||
          match Reasoner.Engine.signed_model ~max_extra eng [ (q, [ el ], false) ] with
          | None -> false
          | Some m ->
              Structure.Instance.subset d m
              && (not (Query.Cq.holds m q [ el ]))
              && Structure.Modelcheck.is_model m (Logic.Ontology.all_sentences o))
        [ qa; qb; qc ])
    els

let test_engine_wide_counting =
  QCheck.Test.make ~name:"engine agrees with Bounded on wide counting nodes" ~count:3
    QCheck.(int_bound 100000)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      List.for_all
        (fun o ->
          let d = wide_instance rng 13 in
          let dom = Structure.Instance.domain_list d in
          let some () =
            List.init 2 (fun _ -> List.nth dom (Random.State.int rng (List.length dom)))
          in
          let static = Reasoner.Engine.create o d in
          List.for_all (fun c -> agrees_on static o d c (some ())) [ 1; 0; 2 ]
          && countermodels_check static o 1 dom
          &&
          let pool =
            Array.of_list
              (List.map (fun el -> Structure.Instance.fact "B" [ el ]) dom
              @ List.concat_map
                  (fun x -> List.map (fun y -> Structure.Instance.fact "R" [ x; y ]) dom)
                  dom)
          in
          let eng = ref (Reasoner.Engine.create ~dynamic:true o d) in
          List.for_all
            (fun _ ->
              let f = pool.(Random.State.int rng (Array.length pool)) in
              let cur = Reasoner.Engine.instance !eng in
              let present = Structure.Instance.mem f cur in
              let how =
                if present then Reasoner.Engine.retract_facts !eng [ f ]
                else Reasoner.Engine.insert_facts !eng [ f ]
              in
              if how = `Needs_rebuild then
                eng :=
                  Reasoner.Engine.create ~dynamic:true o
                    (if present then Structure.Instance.remove_fact f cur
                     else Structure.Instance.add_fact f cur);
              let max_extra = [| 1; 0; 2 |].(Random.State.int rng 3) in
              let els = some () in
              agrees_on !eng o (Reasoner.Engine.instance !eng) max_extra els
              && countermodels_check !eng o max_extra els)
            (List.init 3 Fun.id))
        o_wide)

(* 2. One engine grounds once per ceiling, on first use, whatever entry
   point asks: consistency at ceiling 1 grounds dom(D) plus one null,
   and every element's certainty, a disjunction and the smaller ceiling
   0 answer on that grounding; a signed model at ~max_extra:2 grounds
   exactly once more, and every later call at a ceiling up to 2 reuses
   it. A proof found at a ceiling answers every smaller one without a
   solve. *)
let test_grounds_each_bound_once () =
  let d = inst [ ("A", [ "a" ]); ("R", [ "a"; "b" ]) ] in
  let eng = Reasoner.Engine.create o_horn d in
  let groundings () = (Reasoner.Engine.stats eng).groundings in
  let solves () = (Reasoner.Engine.stats eng).solves in
  let everything max_extra =
    ignore (Reasoner.Engine.is_consistent ~max_extra eng);
    List.iter
      (fun el -> ignore (Reasoner.Engine.certain_cq ~max_extra eng qc [ el ]))
      (Structure.Instance.domain_list d);
    ignore
      (Reasoner.Engine.certain_disjunction ~max_extra eng
         [ (qa, [ e "a" ]); (qb, [ e "a" ]) ])
  in
  check_int "create grounds nothing" 0 (groundings ());
  check "consistent" true (Reasoner.Engine.is_consistent ~max_extra:1 eng);
  check_int "one grounding at ceiling 1" 1 (groundings ());
  check "C(a) certain" true (Reasoner.Engine.certain_cq ~max_extra:1 eng qc [ e "a" ]);
  let before = solves () in
  check "C(a) certain at ceiling 0" true
    (Reasoner.Engine.certain_cq ~max_extra:0 eng qc [ e "a" ]);
  check_int "the ceiling-1 proof answers ceiling 0" before (solves ());
  everything 1;
  everything 0;
  check "A(a) or B(a) certain" true
    (Reasoner.Engine.certain_disjunction ~max_extra:1 eng
       [ (qa, [ e "a" ]); (qb, [ e "a" ]) ]);
  check_int "ceilings 0 and 1 share the grounding" 1 (groundings ());
  check "a model without C(a) exists nowhere" true
    (Option.is_none
       (Reasoner.Engine.signed_model ~max_extra:2 eng [ (qc, [ e "a" ], false) ]));
  check_int "a larger ceiling grounds exactly once more" 2 (groundings ());
  List.iter everything [ 2; 0; 1 ];
  check_int "ceilings up to 2 share it" 2 (groundings ());
  check "solver was invoked" true (solves () > 0)

(* 3. A fuel trip while the grounding at a larger ceiling builds leaves
   it unbuilt: the engine keeps the grounding it had, answers like a
   fresh engine, and the next call at that ceiling grounds exactly
   once. The sweep injects the trip at every checkpoint the ceiling-1
   call passes (counted by an observer on a twin engine), so it covers
   trips while grounding and trips after it; a grounding that trips
   counts its time in [ground_seconds] but not in [groundings]. [ask] is
   a certain answer at both ceilings. *)
let trip_sweep o d ask =
  let expected = ask Reasoner.Budget.unlimited ~max_extra:1 (Reasoner.Engine.create o d) in
  check "certain at ceiling 1" true expected;
  (* an engine that has answered at ceiling 0 *)
  let grounded_at_0 () =
    let eng = Reasoner.Engine.create o d in
    check "certain at ceiling 0" true (ask Reasoner.Budget.unlimited ~max_extra:0 eng);
    eng
  in
  let obs = Reasoner.Budget.observer () in
  ignore (ask obs ~max_extra:1 (grounded_at_0 ()));
  let n = Reasoner.Budget.checkpoints obs in
  check "the ceiling-1 call passes checkpoints" true (n > 0);
  let unbuilt = ref 0 and tripped_seconds = ref 0. in
  for i = 0 to n - 1 do
    let eng = grounded_at_0 () in
    let seconds_before = (Reasoner.Engine.stats eng).ground_seconds in
    (match ask (Reasoner.Budget.inject_after i) ~max_extra:1 eng with
    | _ -> Alcotest.failf "checkpoint %d of %d must trip" i n
    | exception Reasoner.Budget.Exhausted _ -> ());
    let after_trip = (Reasoner.Engine.stats eng).groundings in
    check "the tripped grounding is kept only when complete" true
      (after_trip = 1 || after_trip = 2);
    if after_trip = 1 then begin
      incr unbuilt;
      tripped_seconds :=
        !tripped_seconds +. ((Reasoner.Engine.stats eng).ground_seconds -. seconds_before)
    end;
    check "answers like a fresh engine" expected
      (ask Reasoner.Budget.unlimited ~max_extra:1 eng);
    check_int "ceiling 1 grounded exactly once" 2
      (Reasoner.Engine.stats eng).groundings;
    check "consistency like a fresh engine" true
      (Reasoner.Engine.is_consistent ~max_extra:1 eng)
  done;
  check "the first checkpoint trips while grounding" true (!unbuilt > 0);
  check "groundings that trip count their time" true (!tripped_seconds > 0.)

(* The sweep over a disjunctive ontology, and over a wide counting node:
   A ⊑ ≥3 R.B over 8 elements is subset-expanded at ceiling 0 (C(8,3) =
   56 subsets) and one cardinality constraint at ceiling 1 (C(9,3) =
   84), so the sweep trips between the constraint's reified bodies and
   its record, and at the record itself. A(a) needs three R-successors
   in B, so by B ⊑ C some element is C. *)
let test_trip_while_grounding () =
  let pointed = [ (qa, [ e "a" ]); (qb, [ e "a" ]) ] in
  trip_sweep o_disj
    (inst [ ("D", [ "a" ]); ("D", [ "b" ]) ])
    (fun budget ~max_extra eng ->
      Reasoner.Engine.certain_disjunction ~budget ~max_extra eng pointed);
  let o =
    Dl.Translate.tbox (Dl.Parser.parse_tbox "A << >= 3 R . B\nB << C")
  in
  let d =
    inst (("A", [ "a" ]) :: List.init 7 (fun i -> ("D", [ "d" ^ string_of_int i ])))
  in
  trip_sweep o d (fun budget ~max_extra eng ->
      Reasoner.Engine.certain_cq ~budget ~max_extra eng qsome [])

(* 3b. A delta reaches the grounding, and a grounding built after the
   delta (at a larger ceiling) sees the updated instance: the dynamic
   engine answers like a fresh engine on the net instance at every
   ceiling, and a delta never regrounds. *)
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
  check_int "one grounding at ceiling 1" 1 (groundings ());
  check "insert A(b) is a delta" true
    (Reasoner.Engine.insert_facts eng [ b_fact ] = `Delta);
  let grown = Structure.Instance.add_fact b_fact d in
  check "the grounding sees A(b) at ceilings 1 and 0" true
    (answers ~max_extra:1 eng = fresh ~max_extra:1 grown
    && answers ~max_extra:0 eng = fresh ~max_extra:0 grown
    && answers ~max_extra:1 eng = [ e "a"; e "b" ]);
  check_int "no regrounding" 1 (groundings ());
  check "ceiling 2 grounds on the grown instance" true
    (answers ~max_extra:2 eng = fresh ~max_extra:2 grown);
  check_int "ceiling 2 grounded once" 2 (groundings ());
  check "retract A(b) is a delta" true
    (Reasoner.Engine.retract_facts eng [ b_fact ] = `Delta);
  check "every ceiling forgets A(b)" true
    (List.for_all
       (fun max_extra -> answers ~max_extra eng = fresh ~max_extra d)
       [ 2; 0; 1 ]
    && answers ~max_extra:2 eng = [ e "a" ]);
  check_int "still two groundings" 2 (groundings ())

(* 3c. Answers carry their proofs. On a dynamic engine a certain tuple
   is re-asked for free while the facts of its failed-assumption core
   stay: an insert keeps every proof, and a retract of a fact the proof
   cites sends the tuple back to the solver, whose verdict matches a
   fresh engine on the shrunk instance. A static engine asserts its
   facts, so its proofs cite none and never lapse. *)
let test_proofs_survive_until_their_facts_go () =
  let d = inst [ ("D", [ "a" ]); ("D", [ "b" ]); ("R", [ "a"; "b" ]) ] in
  let eng = Reasoner.Engine.create ~dynamic:true o_disj d in
  let solves () = (Reasoner.Engine.stats eng).solves in
  let ask el = Reasoner.Engine.certain_ucq ~max_extra:1 eng qab [ e el ] in
  check "A(a) or B(a) certain" true (ask "a");
  let before = solves () in
  check "still certain" true (ask "a");
  check_int "re-asking costs no solve" before (solves ());
  check "insert A(b) is a delta" true
    (Reasoner.Engine.insert_facts eng
       [ { Structure.Instance.rel = "A"; args = [ e "b" ] } ]
    = `Delta);
  check "certain after the insert" true (ask "a");
  check_int "the insert kept the proof" before (solves ());
  let d_a : Structure.Instance.fact = { rel = "D"; args = [ e "a" ] } in
  check "retract D(a) is a delta" true
    (Reasoner.Engine.retract_facts eng [ d_a ] = `Delta);
  let shrunk = Reasoner.Engine.instance eng in
  let fresh = Reasoner.Engine.create o_disj shrunk in
  check "verdict of a fresh engine" true
    (Bool.equal (ask "a")
       (Reasoner.Engine.certain_ucq ~max_extra:1 fresh qab [ e "a" ]));
  check "the retract voided the proof" true (solves () > before);
  let static = Reasoner.Engine.create o_disj d in
  let ask_static () = Reasoner.Engine.certain_cq ~max_extra:1 static qa [ e "a" ] in
  check "A(a) is not certain" false (ask_static ());
  let disjunction () =
    Reasoner.Engine.certain_ucq ~max_extra:1 static qab [ e "a" ]
  in
  check "the disjunction is" true (disjunction ());
  let before = (Reasoner.Engine.stats static).solves in
  check "repeated" true (disjunction () && disjunction ());
  check_int "a static engine's repeats cost no solve" before
    (Reasoner.Engine.stats static).solves

(* Serve-update's shape: its non-Horn ontology and query over a
   600-fact random instance. *)
let served_update_omq =
  Omq.of_tbox
    (Dl.Parser.parse_tbox
       "C0 << C1 or C2\nexists r0 . C1 << C3\nexists r0 . C2 << C3\nC3 << exists r1 . C0\n")
    (Query.Parse.ucq_of_string "q(x) <- C3(x), r1(x,y)")

let served_update_d () =
  Structure.Randgen.large ~rng:(Random.State.make [| 2017 |]) ~nconst:50
    ~unary_p:0.1 ~nfacts:600 ()

(* [n] distinct facts from [fresh ()], none of them [avoid]ed. *)
let draw_facts ~avoid n fresh =
  let rec go acc =
    if List.length acc = n then acc
    else
      let f = fresh () in
      if avoid f || List.mem f acc then go acc else go (f :: acc)
  in
  go []

(* 3d. The same on serve-update's shape, in an updatable session: a
   repeated certain_answers on an unchanged session makes no solve, and
   after an insert of ten absent facts every earlier answer is still
   certain without a solve. The answers after the insert and after the
   retract equal a cold session's. *)
let test_served_update_shape () =
  let omq = served_update_omq and d = served_update_d () in
  let cold d = Omq.certain_answers ~max_extra:2 omq d in
  let s = Omq.open_session ~max_extra:2 ~updatable:true omq d in
  let solves s = (Omq.Session.stats s).solves in
  let answers = Omq.Session.certain_answers s in
  check "some answers" true (answers <> []);
  let before = solves s in
  check "repeat agrees" true (Omq.Session.certain_answers s = answers);
  check_int "a repeated eval makes no solve" before (solves s);
  let dom = Array.of_list (Structure.Instance.domain_list d) in
  let rng = Random.State.make [| 24 |] in
  let facts =
    draw_facts ~avoid:(fun f -> Structure.Instance.mem f d) 10 (fun () ->
        let pick () = dom.(Random.State.int rng (Array.length dom)) in
        if Random.State.bool rng then Structure.Instance.fact "r0" [ pick (); pick () ]
        else Structure.Instance.fact "C0" [ pick () ])
  in
  let s, how = Omq.Session.insert_facts s facts in
  check "the insert is a delta" true (how = `Delta);
  let before = solves s in
  check "every earlier answer stays certain" true
    (List.for_all (Omq.Session.certain s) answers);
  check_int "an insert re-solves no earlier answer" before (solves s);
  let grown = List.fold_left (fun d f -> Structure.Instance.add_fact f d) d facts in
  check "answers after the insert" true (Omq.Session.certain_answers s = cold grown);
  let s, how = Omq.Session.retract_facts s facts in
  check "the retract is a delta" true (how = `Delta);
  check "answers after the retract" true (Omq.Session.certain_answers s = answers)

(* 3e. A solve branches from each variable's initial phase, not from
   the last model (DESIGN.md §5, "Branching phase"). Serve-update's
   rounds on a dynamic engine — insert ten absent r0 facts, answer,
   retract them, answer — twenty times over: O never forces an r0 fact
   (r0 occurs only under an existential on the left of an inclusion),
   so a countermodel for a non-answer holds none of the 200 retracted
   ones. Were the previous model's values kept as phases, a retracted
   fact, once assumed true, would be decided true again. *)
let test_retracted_facts_leave_countermodels () =
  let d = served_update_d () in
  let eng = Reasoner.Engine.create ~dynamic:true served_update_omq.ontology d in
  let dom = Structure.Instance.domain_list d in
  let answers () =
    List.filter
      (fun el ->
        Reasoner.Engine.certain_ucq ~max_extra:2 eng served_update_omq.query [ el ])
      dom
  in
  let first = answers () in
  let dom_a = Array.of_list dom in
  let rng = Random.State.make [| 34 |] in
  let pick () = dom_a.(Random.State.int rng (Array.length dom_a)) in
  let retracted = ref [] in
  for _ = 1 to 20 do
    let facts =
      draw_facts
        ~avoid:(fun f -> Structure.Instance.mem f d || List.mem f !retracted)
        10
        (fun () -> Structure.Instance.fact "r0" [ pick (); pick () ])
    in
    check "insert is a delta" true (Reasoner.Engine.insert_facts eng facts = `Delta);
    ignore (answers ());
    check "retract is a delta" true (Reasoner.Engine.retract_facts eng facts = `Delta);
    check "answers after the retract" true (answers () = first);
    retracted := facts @ !retracted
  done;
  check_int "200 facts retracted" 200 (List.length !retracted);
  let non_answer = List.find (fun el -> not (List.mem el first)) dom in
  let q = List.hd (Query.Ucq.disjuncts served_update_omq.query) in
  match Reasoner.Engine.signed_model ~max_extra:2 eng [ (q, [ non_answer ], false) ] with
  | None -> Alcotest.fail "no countermodel for a non-answer"
  | Some m ->
      check_int "retracted facts in the countermodel" 0
        (List.length (List.filter (fun f -> Structure.Instance.mem f m) !retracted))

(* 3f. Kept countermodels outlive an update round (DESIGN.md §5,
   "Witness reuse"). Serve-update's rounds on a dynamic engine — insert
   ten absent facts of its relations, answer, retract them, answer —
   twenty times over: the insert suspends the countermodels lacking a
   new fact and the retract revives them (as its [engine.delta.*]
   spans count), so every answer after a retract, and the consistency
   check before it, is settled without a solve, and the answers are the
   base answers. *)
let test_retract_revives_countermodels () =
  let d = served_update_d () in
  let eng = Reasoner.Engine.create ~dynamic:true served_update_omq.ontology d in
  let dom = Structure.Instance.domain_list d in
  let answers () =
    List.filter
      (fun el ->
        Reasoner.Engine.certain_ucq ~max_extra:2 eng served_update_omq.query [ el ])
      dom
  in
  let solves () = (Reasoner.Engine.stats eng).solves in
  let base = answers () in
  let dom_a = Array.of_list dom in
  let rels =
    [| ("r0", 2); ("r1", 2); ("r2", 2); ("r3", 2); ("C0", 1); ("C1", 1); ("C2", 1); ("C3", 1) |]
  in
  let rng = Random.State.make [| 35 |] in
  let pick () = dom_a.(Random.State.int rng (Array.length dom_a)) in
  let suspended = ref 0 in
  for _ = 1 to 20 do
    let facts =
      draw_facts ~avoid:(fun f -> Structure.Instance.mem f d) 10 (fun () ->
          let r, k = rels.(Random.State.int rng (Array.length rels)) in
          Structure.Instance.fact r (List.init k (fun _ -> pick ())))
    in
    let (), trace =
      Obs.Trace.collect (fun () ->
          check "insert is a delta" true
            (Reasoner.Engine.insert_facts eng facts = `Delta);
          ignore (answers ());
          check "retract is a delta" true
            (Reasoner.Engine.retract_facts eng facts = `Delta))
    in
    let count span key =
      let s =
        List.find (fun (s : Obs.Trace.span) -> s.name = span) (Obs.Trace.spans trace)
      in
      match List.assoc_opt key s.attrs with
      | Some (Obs.Trace.Int n) -> n
      | _ -> Alcotest.failf "%s without an int %s attribute" span key
    in
    check_int "the retract revives what the insert suspended"
      (count "engine.delta.insert" "suspended")
      (count "engine.delta.retract" "revived");
    check_int "nothing was suspended before the insert" 0
      (count "engine.delta.insert" "dropped");
    suspended := !suspended + count "engine.delta.insert" "suspended";
    let before = solves () in
    check "consistent after the retract" true
      (Reasoner.Engine.is_consistent ~max_extra:2 eng);
    check "answers after the retract" true (answers () = base);
    check_int "no solve after the retract" before (solves ())
  done;
  check "inserts suspended countermodels" true (!suspended > 0)

(* 3g. The same rule under random batches, against Bounded. A dynamic
   engine takes 1–4-fact batches in a script that retracts a newer
   batch before an older one, part of a batch, base facts, and
   re-inserts retracted batches, each step followed by questions at a
   random ceiling. After every step it answers like Bounded on the net
   instance, and every live kept countermodel contains D and is a model
   of O by Modelcheck. Then come rounds of insert a batch, answer,
   retract it, answer, at one ceiling: a round revives what its insert
   suspended and drops what was found in between, so after the first
   round the kept count never grows. Every element carries an [E] fact
   that no step retracts (E is no relation of O), so no delta vacates
   an element. *)
let test_batched_updates =
  QCheck.Test.make ~count:8
    ~name:"dynamic engine agrees with Bounded over batched updates"
    QCheck.(int_bound 100000)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let o = [| o_horn; o_disj; o_active |].(seed mod 3) in
      let base =
        Structure.Randgen.nonempty_instance ~rng ~signature:sig_abcdr ~size:3 ~p:0.3
      in
      let dom = Structure.Instance.domain_list base in
      let d =
        List.fold_left
          (fun d el -> Structure.Instance.add_fact (Structure.Instance.fact "E" [ el ]) d)
          base dom
      in
      let pool =
        List.concat_map
          (fun (r, k) ->
            List.map (Structure.Instance.fact r) (Structure.Randgen.tuples dom k))
          (Logic.Signature.to_list sig_abcdr)
      in
      let eng = Reasoner.Engine.create ~dynamic:true o d in
      let net () = Reasoner.Engine.instance eng in
      let shuffle l =
        List.map snd
          (List.sort compare (List.map (fun x -> (Random.State.bits rng, x)) l))
      in
      let batch ?(least = 1) ?(avoid = []) () =
        let absent =
          List.filter
            (fun f -> not (Structure.Instance.mem f (net ()) || List.mem f avoid))
            pool
        in
        let n = least + Random.State.int rng (5 - least) in
        List.filteri (fun i _ -> i < n) (shuffle absent)
      in
      let live_checked () =
        let d = net () in
        List.for_all
          (fun (m, _, live) ->
            (not live)
            || Structure.Instance.subset d m
               && Structure.Modelcheck.is_model m (Logic.Ontology.all_sentences o))
          (Reasoner.Engine.countermodels eng)
      in
      let step delta max_extra facts =
        delta eng facts = `Delta
        && agrees_at eng o (net ()) max_extra
        && live_checked ()
      in
      let ins ?(max_extra = Random.State.int rng 3) facts =
        step Reasoner.Engine.insert_facts max_extra facts
      and ret ?(max_extra = Random.State.int rng 3) facts =
        step Reasoner.Engine.retract_facts max_extra facts
      in
      let a = batch ~least:2 () in
      let a1, a2 = List.partition (fun f -> f <> List.hd a) a in
      let old =
        List.filteri (fun i _ -> i < 2) (shuffle (Structure.Instance.facts base))
      in
      let scripted =
        agrees_at eng o d (Random.State.int rng 3)
        && ins a && ret a1
        &&
        let b = batch ~avoid:a1 () in
        ins b && ins a1 && ret a1 && ret b && ret a2 && ins b && ret old && ins old
        && ret b
      in
      let max_extra = Random.State.int rng 3 in
      let round () =
        let f = batch () in
        ins ~max_extra f && ret ~max_extra f
      in
      let kept () = List.length (Reasoner.Engine.countermodels eng) in
      scripted && round ()
      &&
      let first = kept () in
      List.for_all (fun _ -> round ()) (List.init 8 Fun.id) && kept () <= first)

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
   unsatisfiable solve, which covers every bound 0..2; all non-answers
   together cost one satisfiable solve. *)
let test_horn_witness_refutes_in_bulk () =
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
  check_int "one solve per answer, one for all non-answers"
    (answers + 1)
    (Omq.Session.stats s).solves

(* 4e. The grounding holds O's relations only; a query over a relation
   only D has admits it on demand, with D's facts of it asserted
   (static) or assumed (dynamic). Engines created without
   [extra_signature], as Decide and lib/material create them, answer
   such a query like Bounded at every ceiling, and a dynamic one keeps
   doing so across an insert of a fact of that relation. *)
let test_d_only_relation () =
  let d = inst [ ("A", [ "a" ]); ("S", [ "a"; "b" ]); ("S", [ "b"; "c" ]) ] in
  let qs = cq ~name:"qs" ~answer:[ "x" ] [ ("S", [ v "x"; v "y" ]); ("C", [ v "x" ]) ] in
  let agrees eng d =
    List.for_all
      (fun max_extra ->
        List.for_all
          (fun el ->
            Bool.equal
              (Reasoner.Engine.certain_cq ~max_extra eng qs [ el ])
              (Reasoner.Bounded.certain_cq ~max_extra o_horn d qs [ el ]))
          (Structure.Instance.domain_list d))
      [ 2; 0; 1 ]
  in
  check "S(a,b) and C(a) make a certain" true
    (Reasoner.Engine.certain_cq (Reasoner.Engine.create o_horn d) qs [ e "a" ]);
  check "static engine agrees with Bounded" true
    (agrees (Reasoner.Engine.create o_horn d) d);
  let eng = Reasoner.Engine.create ~dynamic:true o_horn d in
  check "dynamic engine agrees with Bounded" true (agrees eng d);
  let f = Structure.Instance.fact "S" [ e "c"; e "a" ] in
  check "insert S(c,a) is a delta" true (Reasoner.Engine.insert_facts eng [ f ] = `Delta);
  check "and agrees after it" true (agrees eng (Structure.Instance.add_fact f d));
  check_int "no regrounding" 1 (Reasoner.Engine.stats eng).groundings

(* 4d. serve-read's hand sessions (O1 ∪ O2 of the paper over one
   five-fingered hand, with and without a thumb fact, asking Hand(x) or
   Thumb(x)): a warm repeat makes no solve. Without a thumb fact each
   finger needs its own countermodel (the thumb may be any of them), so
   this holds only while every countermodel found is kept. *)
let test_hand_warm_repeats () =
  let tbox =
    Dl.Parser.parse_tbox "Hand << == 5 hasFinger\nHand << exists hasFinger . Thumb\n"
  in
  let fingers =
    String.concat "" (List.init 5 (Printf.sprintf "hasFinger(h, h_f%d)\n"))
  in
  List.iter
    (fun (thumb, query) ->
      let d =
        Structure.Parse.instance_of_string
          ("Hand(h)\n" ^ fingers ^ if thumb then "Thumb(h_f3)\n" else "")
      in
      let ucq = Query.Parse.ucq_of_string query in
      let omq = Omq.of_tbox tbox ucq in
      let s = Omq.open_session ~max_extra:2 ~updatable:true omq d in
      let solves () = (Omq.Session.stats s).solves in
      let answers = Omq.Session.certain_answers s in
      check (query ^ ": answers like Bounded") true
        (answers
        = List.filter_map
            (fun el ->
              if Reasoner.Bounded.certain_ucq ~max_extra:2 omq.Omq.ontology d ucq [ el ]
              then Some [ el ]
              else None)
            (Structure.Instance.domain_list d));
      let before = solves () in
      check "repeat agrees" true (Omq.Session.certain_answers s = answers);
      check_int (query ^ ": a warm repeat makes no solve") before (solves ()))
    [ (false, "q(x) <- Thumb(x)"); (false, "q(x) <- Hand(x)");
      (true, "q(x) <- Thumb(x)"); (true, "q(x) <- Hand(x)") ]

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
    QCheck_alcotest.to_alcotest test_engine_vs_bounded_nested;
    Alcotest.test_case "gen2017-020 verdict, countermodels checked" `Quick
      test_gen2017_020_checked;
    QCheck_alcotest.to_alcotest test_mixed_ceilings;
    QCheck_alcotest.to_alcotest test_signed_model_first_bound;
    QCheck_alcotest.to_alcotest test_dynamic_mixed_ceilings;
    QCheck_alcotest.to_alcotest test_engine_wide_counting;
    Alcotest.test_case "grounds_each_bound_once" `Quick
      test_grounds_each_bound_once;
    Alcotest.test_case "trip_while_grounding" `Quick test_trip_while_grounding;
    Alcotest.test_case "delta_reaches_every_bound" `Quick
      test_delta_reaches_every_bound;
    Alcotest.test_case "proofs_survive_until_their_facts_go" `Quick
      test_proofs_survive_until_their_facts_go;
    Alcotest.test_case "served_update_shape" `Quick test_served_update_shape;
    Alcotest.test_case "retracted_facts_leave_countermodels" `Quick
      test_retracted_facts_leave_countermodels;
    Alcotest.test_case "retract_revives_countermodels" `Quick
      test_retract_revives_countermodels;
    QCheck_alcotest.to_alcotest test_batched_updates;
    Alcotest.test_case "session_stats" `Quick test_session_stats;
    Alcotest.test_case "horn_witness_refutes_in_bulk" `Quick
      test_horn_witness_refutes_in_bulk;
    Alcotest.test_case "d_only_relation_admitted_with_its_facts" `Quick
      test_d_only_relation;
    Alcotest.test_case "hand_warm_repeats_make_no_solve" `Quick
      test_hand_warm_repeats;
    Alcotest.test_case "rewritten_result" `Quick test_rewritten_result;
    Alcotest.test_case "streaming" `Quick test_streaming;
  ]
