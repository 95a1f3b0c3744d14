(* Cross-cutting property tests: random instances exercise the
   agreement between independent implementations (chase vs SAT engine vs
   Datalog rewriting, CSP solver vs encoding, unravelling invariants). *)

open Helpers
module F = Logic.Formula
module ESet = Structure.Element.Set

let check = Alcotest.(check bool)

(* 1. Chase agrees with the bounded engine on random Horn instances. *)
let horn_rules =
  [
    Reasoner.Chase.rule ~name:"exists"
      ~body:[ ("A", [ v "x" ]) ]
      ~head:[ ("R", [ v "x"; v "y" ]); ("B", [ v "y" ]) ]
      ();
    Reasoner.Chase.rule ~name:"propagate"
      ~body:[ ("R", [ v "x"; v "y" ]); ("B", [ v "y" ]) ]
      ~head:[ ("C", [ v "x" ]) ]
      ();
  ]

let test_chase_vs_bounded =
  QCheck.Test.make ~name:"chase agrees with bounded certain answers" ~count:20
    QCheck.(int_bound 100000)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let signature = Logic.Signature.of_list [ ("A", 1); ("B", 1); ("R", 2) ] in
      let d = Structure.Randgen.nonempty_instance ~rng ~signature ~size:3 ~p:0.35 in
      let qc = cq ~name:"qc" ~answer:[ "x" ] [ ("C", [ v "x" ]) ] in
      List.for_all
        (fun el ->
          Bool.equal
            (Reasoner.Chase.certain_cq horn_rules d qc [ el ])
            (Reasoner.Bounded.certain_cq ~max_extra:2 o_horn d qc [ el ]))
        (Structure.Instance.domain_list d))

(* 2. The Theorem 8 encoding round-trips on random graphs. *)
let test_csp_encoding_roundtrip =
  QCheck.Test.make ~name:"K2 encoding consistency iff 2-colorable" ~count:12
    QCheck.(int_bound 100000)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let template = Csp.Precolor.closure (Csp.Template.k_colouring 2) in
      let o = Csp.Encode.ontology template in
      let signature = Logic.Signature.of_list [ ("E", 2) ] in
      let g = Structure.Randgen.instance ~rng ~signature ~size:4 ~p:0.3 in
      (* make it an undirected simple graph without loops *)
      let g =
        List.fold_left
          (fun acc (f : Structure.Instance.fact) ->
            match f.args with
            | [ a; b ] when not (Structure.Element.equal a b) ->
                Structure.Instance.add_fact
                  (Structure.Instance.fact "E" [ b; a ])
                  (Structure.Instance.add_fact f acc)
            | _ -> acc)
          Structure.Instance.empty (Structure.Instance.facts g)
      in
      Bool.equal
        (Csp.Solve.solvable template g)
        (Reasoner.Bounded.is_consistent ~max_extra:2 o
           (Csp.Encode.lift_instance template g)))

(* 3. Unravellings: the up map is always a homomorphism onto D, and the
   unravelled instance is always guarded-tree decomposable. *)
let test_unravel_invariants =
  QCheck.Test.make ~name:"unravelling invariants" ~count:25
    QCheck.(pair (int_bound 100000) (int_range 1 3))
    (fun (seed, depth) ->
      let rng = Random.State.make [| seed |] in
      let signature = Logic.Signature.of_list [ ("R", 2); ("S", 2) ] in
      let d = Structure.Randgen.nonempty_instance ~rng ~signature ~size:3 ~p:0.4 in
      List.for_all
        (fun variant ->
          let u = Structure.Unravel.unravel ~variant ~depth d in
          let du = Structure.Unravel.instance u in
          Structure.Treedec.is_guarded_tree_decomposable du
          && Structure.Homomorphism.is_homomorphism
               (Structure.Unravel.up_map u) ~source:du ~target:d)
        [ Structure.Unravel.UGF; Structure.Unravel.UGC2 ])

(* 4. Random shallow uGF2 sentences are invariant under disjoint
   unions (Theorem 1, tested through the syntax-to-semantics path). *)
let random_ugf2_sentence rng =
  let atom1 r x = F.atom r [ v x ] in
  let pick l = List.nth l (Random.State.int rng (List.length l)) in
  let unary () = pick [ "A"; "B" ] in
  let lit x = if Random.State.bool rng then atom1 (unary ()) x else F.Not (atom1 (unary ()) x) in
  let body_shapes =
    [
      (fun () -> F.Implies (lit "x", lit "x"));
      (fun () ->
        F.Implies
          ( lit "x",
            F.Exists ([ "y" ], F.And (F.atom "R" [ v "x"; v "y" ], lit "y")) ));
      (fun () ->
        F.Implies
          ( F.Exists ([ "y" ], F.And (F.atom "R" [ v "y"; v "x" ], lit "y")),
            F.Or (lit "x", lit "x") ));
    ]
  in
  forall_eq "x" ((pick body_shapes) ())

let test_random_ugf_invariant =
  QCheck.Test.make ~name:"random uGF2 sentences are disjoint-union invariant"
    ~count:25
    QCheck.(int_bound 100000)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let s = random_ugf2_sentence rng in
      Gf.Syntax.is_ugf_sentence s
      && Gf.Invariance.appears_invariant ~samples:40 ~size:2 s)

(* 5. Scott reduction preserves uGF membership and consistency on
   random instances, for a random deep sentence. *)
let test_scott_random =
  QCheck.Test.make ~name:"Scott reduction: uGF, shallow, equiconsistent"
    ~count:10
    QCheck.(int_bound 100000)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let deep =
        forall_eq "x"
          (F.Implies
             ( F.atom "A" [ v "x" ],
               F.Exists
                 ( [ "y" ],
                   F.And
                     ( F.atom "R" [ v "x"; v "y" ],
                       F.Exists
                         ( [ "z" ],
                           F.And
                             ( F.atom "R" [ v "y"; v "z" ],
                               (if Random.State.bool rng then F.atom "B" [ v "z" ]
                                else F.Not (F.atom "B" [ v "z" ])) ) ) ) ) ))
      in
      let o = Logic.Ontology.make [ deep ] in
      let o' = Gf.Scott.reduce_ontology o in
      let signature = Logic.Signature.of_list [ ("A", 1); ("B", 1); ("R", 2) ] in
      let d = Structure.Randgen.nonempty_instance ~rng ~signature ~size:2 ~p:0.4 in
      List.for_all
        (fun s -> Gf.Syntax.is_ugf_sentence s && Gf.Syntax.sentence_depth s <= 1)
        (Logic.Ontology.sentences o')
      && Bool.equal
           (Reasoner.Bounded.is_consistent ~max_extra:2 o d)
           (Reasoner.Bounded.is_consistent ~max_extra:2 o' d))

(* 6. Hom-universal models (Lemma 2 direction we can check): Horn
   ontologies admit them among the bounded models; the disjunctive one
   does not. *)
let test_hom_universal () =
  let d = inst [ ("A", [ "a" ]) ] in
  check "Horn: hom-universal exists" true
    (Material.Universal.admits_hom_universal ~extra:1 ~limit:100 o_horn d);
  let dd = inst [ ("D", [ "a" ]) ] in
  check "disjunctive: no hom-universal" false
    (Material.Universal.admits_hom_universal ~extra:0 ~limit:100 o_disj dd)

(* 7. Materializability coincides with the disjunction property on the
   paper's examples (Theorem 17). *)
let test_disjunction_materializability_agree () =
  let cases =
    [
      (o_horn, inst [ ("A", [ "a" ]) ], true);
      (o_disj, inst [ ("D", [ "a" ]) ], false);
    ]
  in
  List.iter
    (fun (o, d, expected) ->
      check "materializable_on" expected
        (Material.Materializability.materializable_on ~max_model_extra:1
           (Reasoner.Engine.create o d));
      let violation =
        Material.Disjunction.find_violation o
          (Material.Disjunction.default_candidates o d)
      in
      check "disjunction property" expected (violation = None))
    cases

let suite =
  [
    QCheck_alcotest.to_alcotest test_chase_vs_bounded;
    QCheck_alcotest.to_alcotest test_csp_encoding_roundtrip;
    QCheck_alcotest.to_alcotest test_unravel_invariants;
    QCheck_alcotest.to_alcotest test_random_ugf_invariant;
    QCheck_alcotest.to_alcotest test_scott_random;
    Alcotest.test_case "hom_universal" `Quick test_hom_universal;
    Alcotest.test_case "disjunction_materializability" `Quick
      test_disjunction_materializability_agree;
  ]
