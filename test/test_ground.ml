(* The rank-based grounder against a reference implementation.

   [Reference] below is the pre-arena grounder kept verbatim in spirit:
   fact variables live in a polymorphic hashtable, quantifier expansion
   recurses over [SMap] environments, and clauses are literal lists fed
   to the solver's list API. The production [Reasoner.Ground] computes
   fact variables arithmetically (mixed-radix tuple ranks over interned
   element positions), compiles sentences to slot-resolved form, and
   emits clauses into a flat arena — these tests pit the two against
   each other on randomized instances: same satisfiability, same model
   sets under [enumerate], and same certain answers through the session
   engine (whose witness shortcut must agree with the reference's
   per-tuple solves). *)

open Helpers
module F = Logic.Formula
module SMap = Logic.Names.SMap

let check = Alcotest.(check bool)

(* ---------------------------------------------------------------- *)
(* The reference grounder                                            *)
(* ---------------------------------------------------------------- *)

module Reference = struct
  type t = {
    domain : Structure.Element.t array;
    fact_ids : (Structure.Instance.fact, int) Hashtbl.t;
    mutable facts_rev : Structure.Instance.fact list;
    mutable nfacts : int;
    mutable nvars : int;
    mutable clauses : int list list;
  }

  let register_signature t signature =
    let rec tuples k =
      if k = 0 then [ [] ]
      else
        List.concat_map
          (fun rest -> List.map (fun e -> e :: rest) (Array.to_list t.domain))
          (tuples (k - 1))
    in
    List.iter
      (fun (rel, arity) ->
        List.iter
          (fun args ->
            let f = Structure.Instance.fact rel args in
            if not (Hashtbl.mem t.fact_ids f) then begin
              t.nfacts <- t.nfacts + 1;
              t.nvars <- t.nvars + 1;
              Hashtbl.replace t.fact_ids f t.nvars;
              t.facts_rev <- f :: t.facts_rev
            end)
          (tuples arity))
      (Logic.Signature.to_list signature)

  let create ~domain ~signature =
    let t =
      {
        domain = Array.of_list domain;
        fact_ids = Hashtbl.create 64;
        facts_rev = [];
        nfacts = 0;
        nvars = 0;
        clauses = [];
      }
    in
    register_signature t signature;
    t

  let fact_var t f = Hashtbl.find t.fact_ids f

  let fresh_aux t =
    t.nvars <- t.nvars + 1;
    t.nvars

  let add_clause t c = t.clauses <- c :: t.clauses

  type g = GTrue | GFalse | GLit of int | GAnd of g list | GOr of g list

  let gand parts =
    let rec go acc = function
      | [] -> ( match acc with [] -> GTrue | [ x ] -> x | xs -> GAnd xs)
      | GTrue :: rest -> go acc rest
      | GFalse :: _ -> GFalse
      | GAnd xs :: rest -> go acc (xs @ rest)
      | x :: rest -> go (x :: acc) rest
    in
    go [] parts

  let gor parts =
    let rec go acc = function
      | [] -> ( match acc with [] -> GFalse | [ x ] -> x | xs -> GOr xs)
      | GFalse :: rest -> go acc rest
      | GTrue :: _ -> GTrue
      | GOr xs :: rest -> go acc (xs @ rest)
      | x :: rest -> go (x :: acc) rest
    in
    go [] parts

  let element env = function
    | Logic.Term.Const c -> Structure.Element.Const c
    | Logic.Term.Var v -> SMap.find v env

  let rec subsets n = function
    | _ when n = 0 -> [ [] ]
    | [] -> []
    | x :: rest ->
        List.map (fun s -> x :: s) (subsets (n - 1) rest) @ subsets n rest

  let rec ground t env sign (f : F.t) =
    match f with
    | F.True -> if sign then GTrue else GFalse
    | F.False -> if sign then GFalse else GTrue
    | F.Atom (r, ts) ->
        let fact = Structure.Instance.fact r (List.map (element env) ts) in
        let v = fact_var t fact in
        GLit (if sign then v else -v)
    | F.Eq (a, b) ->
        let same = Structure.Element.equal (element env a) (element env b) in
        if same = sign then GTrue else GFalse
    | F.Not g -> ground t env (not sign) g
    | F.And (a, b) ->
        if sign then gand [ ground t env true a; ground t env true b ]
        else gor [ ground t env false a; ground t env false b ]
    | F.Or (a, b) ->
        if sign then gor [ ground t env true a; ground t env true b ]
        else gand [ ground t env false a; ground t env false b ]
    | F.Implies (a, b) ->
        if sign then gor [ ground t env false a; ground t env true b ]
        else gand [ ground t env true a; ground t env false b ]
    | F.Forall (vs, g) ->
        let parts = assignments t env vs (fun env' -> ground t env' sign g) in
        if sign then gand parts else gor parts
    | F.Exists (vs, g) ->
        let parts = assignments t env vs (fun env' -> ground t env' sign g) in
        if sign then gor parts else gand parts
    | F.CountGeq (n, v, g) ->
        let dom = Array.to_list t.domain in
        if sign then
          gor
            (List.map
               (fun s ->
                 gand
                   (List.map (fun e -> ground t (SMap.add v e env) true g) s))
               (subsets n dom))
        else
          gand
            (List.map
               (fun s ->
                 gor (List.map (fun e -> ground t (SMap.add v e env) false g) s))
               (subsets n dom))

  and assignments t env vs k =
    match vs with
    | [] -> [ k env ]
    | v :: rest ->
        List.concat_map
          (fun e -> assignments t (SMap.add v e env) rest k)
          (Array.to_list t.domain)

  let rec lit_of t g =
    match g with
    | GTrue | GFalse -> assert false
    | GLit l -> l
    | GAnd parts ->
        let ls = List.map (lit_of t) parts in
        let a = fresh_aux t in
        List.iter (fun l -> add_clause t [ -a; l ]) ls;
        add_clause t (a :: List.map (fun l -> -l) ls);
        a
    | GOr parts ->
        let ls = List.map (lit_of t) parts in
        let a = fresh_aux t in
        List.iter (fun l -> add_clause t [ -l; a ]) ls;
        add_clause t (-a :: ls);
        a

  let rec assert_g t g =
    match g with
    | GTrue -> ()
    | GFalse -> add_clause t []
    | GLit l -> add_clause t [ l ]
    | GAnd parts -> List.iter (assert_g t) parts
    | GOr parts -> add_clause t (List.map (lit_of t) parts)

  let assert_formula ?(env = SMap.empty) t f = assert_g t (ground t env true f)
  let assert_negation ?(env = SMap.empty) t f = assert_g t (ground t env false f)

  let assert_instance t inst =
    Structure.Instance.iter_facts (fun f -> add_clause t [ fact_var t f ]) inst

  let model_to_instance t model =
    let base =
      Array.fold_left
        (fun inst e -> Structure.Instance.add_element e inst)
        Structure.Instance.empty t.domain
    in
    List.fold_left
      (fun inst f ->
        if model.(fact_var t f - 1) then Structure.Instance.add_fact f inst
        else inst)
      base (List.rev t.facts_rev)

  let solve t =
    match Reasoner.Dpll.solve ~nvars:t.nvars t.clauses with
    | Reasoner.Dpll.Unsat -> None
    | Reasoner.Dpll.Sat model -> Some (model_to_instance t model)

  let enumerate ?(limit = max_int) t =
    let project = List.init t.nfacts (fun i -> i + 1) in
    Reasoner.Dpll.enumerate ~nvars:t.nvars ~project ~limit t.clauses
    |> List.map (model_to_instance t)
end

(* ---------------------------------------------------------------- *)
(* Scenarios: ontologies exercising every connective the compiler
   handles, including the Eq fold and CountGeq subset expansion        *)
(* ---------------------------------------------------------------- *)

let sig_ar = Logic.Signature.of_list [ ("A", 1); ("B", 1); ("R", 2) ]

(* ∀x (A(x) → ∃y R(x,y)), ∀x∀y (R(x,y) → B(y)) *)
let o_exists =
  Logic.Ontology.make
    [
      F.Forall
        ( [ "x" ],
          F.Implies
            (atom "A" [ v "x" ], F.Exists ([ "y" ], atom "R" [ v "x"; v "y" ]))
        );
      F.Forall
        ( [ "x"; "y" ],
          F.Implies (atom "R" [ v "x"; v "y" ], atom "B" [ v "y" ]) );
    ]

(* Eq coverage: ∀x∀y (R(x,y) → (x = y ∨ B(y))) — the compile-time
   equality fold must agree with the reference's element comparison. *)
let o_eq =
  Logic.Ontology.make
    [
      F.Forall
        ( [ "x"; "y" ],
          F.Implies
            ( atom "R" [ v "x"; v "y" ],
              F.Or (F.Eq (v "x", v "y"), atom "B" [ v "y" ]) ) );
    ]

(* CountGeq coverage: ∀x (A(x) → ∃≥2 y R(x,y)), ¬∃≥3 y B(y). *)
let o_count =
  Logic.Ontology.make
    [
      F.Forall
        ( [ "x" ],
          F.Implies
            (atom "A" [ v "x" ], F.CountGeq (2, "y", atom "R" [ v "x"; v "y" ]))
        );
      F.Not (F.CountGeq (3, "y", atom "B" [ v "y" ]));
    ]

let scenarios =
  [ ("exists", o_exists); ("eq", o_eq); ("count", o_count) ]

let domain_of d extra =
  Structure.Instance.domain_list d @ Structure.Instance.fresh_nulls extra d

let ontology_signature o d =
  Logic.Signature.union sig_ar
    (Logic.Signature.union
       (Logic.Signature.of_formulas (Logic.Ontology.all_sentences o))
       (Structure.Instance.signature d))

(* Build both groundings of (O, D) over the same domain. *)
let both o d extra =
  let domain = domain_of d extra in
  let signature = ontology_signature o d in
  let g = Reasoner.Ground.create ~domain ~signature () in
  let r = Reference.create ~domain ~signature in
  List.iter
    (fun s ->
      Reasoner.Ground.assert_formula g s;
      Reference.assert_formula r s)
    (Logic.Ontology.all_sentences o);
  Reasoner.Ground.assert_instance g d;
  Reference.assert_instance r d;
  (g, r)

let canonical insts =
  List.sort_uniq compare
    (List.map
       (fun i -> List.sort Structure.Instance.compare_fact (Structure.Instance.facts i))
       insts)

let random_instance seed size p =
  let rng = Random.State.make [| seed |] in
  Structure.Randgen.instance ~rng ~signature:sig_ar ~size ~p

(* 1. Same satisfiability verdict on random instances. *)
let test_sat_agreement =
  QCheck.Test.make ~name:"rank grounder agrees on satisfiability" ~count:30
    QCheck.(pair (int_bound 100000) (int_bound 2))
    (fun (seed, extra) ->
      let d = random_instance seed 3 0.4 in
      List.for_all
        (fun (_, o) ->
          let g, r = both o d extra in
          Bool.equal
            (Option.is_some (Reasoner.Ground.solve g))
            (Option.is_some (Reference.solve r)))
        scenarios)

(* 2. Identical model sets (not just counts) under enumerate. The
   domain is kept at ≤ 2 elements so the full model space (≤ 2^8) fits
   under the limit — a truncated enumeration would compare prefixes
   that legitimately differ between implementations. *)
let test_enumerate_agreement =
  QCheck.Test.make ~name:"rank grounder enumerates the same models" ~count:15
    QCheck.(int_bound 100000)
    (fun seed ->
      let d = random_instance seed 1 0.5 in
      List.for_all
        (fun (_, o) ->
          let g, r = both o d 1 in
          let mg = Reasoner.Ground.enumerate ~limit:2000 g in
          let mr = Reference.enumerate ~limit:2000 r in
          List.length mg = List.length mr
          && canonical mg = canonical mr)
        scenarios)

(* 3. Certain answers through the session engine (rank-based grounding,
   witness shortcut, assumption solving) agree with per-tuple reference
   refutation solves. *)
let test_certain_agreement =
  QCheck.Test.make ~name:"engine certain answers match reference grounder"
    ~count:20
    QCheck.(pair (int_bound 100000) (int_bound 1))
    (fun (seed, extra) ->
      let d = random_instance seed 3 0.4 in
      let q = cq ~name:"q" ~answer:[ "x" ] [ ("B", [ v "x" ]) ] in
      let qf = Query.Cq.to_formula q in
      List.for_all
        (fun (_, o) ->
          List.for_all
            (fun el ->
              let reference =
                (* certain iff O + D + ¬q(el) is unsatisfiable at every
                   bound 0..extra *)
                List.for_all
                  (fun k ->
                    let domain = domain_of d k in
                    let signature =
                      Logic.Signature.union (ontology_signature o d)
                        (Logic.Signature.of_formula qf)
                    in
                    let r = Reference.create ~domain ~signature in
                    List.iter
                      (Reference.assert_formula r)
                      (Logic.Ontology.all_sentences o);
                    Reference.assert_instance r d;
                    Reference.assert_negation
                      ~env:(SMap.singleton "x" el)
                      r qf;
                    Option.is_none (Reference.solve r))
                  (List.init (extra + 1) Fun.id)
              in
              let bounded =
                Reasoner.Bounded.certain_cq ~max_extra:extra o d q [ el ]
              in
              let session =
                Omq.certain ~max_extra:extra (Omq.of_cq o q) d [ el ]
              in
              Bool.equal reference bounded && Bool.equal reference session)
            (Structure.Instance.domain_list d))
        scenarios)

(* 4. Horn axioms ground to plain CNF. Over a 4-element domain,
   ∃r.A ⊑ B and A ⊑ ∀r.B are the 16 clauses ¬r(x,y) ∨ ¬A(y) ∨ B(x),
   resp. ¬A(x) ∨ ¬r(x,y) ∨ B(y): the disjunction with one conjunction
   is distributed, so no Tseitin auxiliary is allocated (a reified
   encoding needs 5 per element and 72 clauses). *)
let test_horn_axioms_plain_cnf () =
  let domain = List.map e [ "a"; "b"; "c"; "d" ] in
  let signature = Logic.Signature.of_list [ ("A", 1); ("B", 1); ("r", 2) ] in
  let facts = 4 + 4 + 16 in
  List.iter
    (fun axiom ->
      let g = Reasoner.Ground.create ~domain ~signature () in
      List.iter
        (Reasoner.Ground.assert_formula g)
        (Logic.Ontology.all_sentences
           (Dl.Translate.tbox (Dl.Parser.parse_tbox axiom)));
      let clauses = ref 0 in
      Reasoner.Ground.iter_pending g (fun _ _ len ->
          incr clauses;
          Alcotest.(check int) (axiom ^ ": ternary clause") 3 len);
      Alcotest.(check int) (axiom ^ ": clauses") 16 !clauses;
      Alcotest.(check int) (axiom ^ ": no auxiliaries") facts
        (Reasoner.Ground.nvars g))
    [ "exists r . A << B"; "A << forall r . B" ]

let qsuite = List.map QCheck_alcotest.to_alcotest

let suite =
  qsuite
    [ test_sat_agreement; test_enumerate_agreement; test_certain_agreement ]
  @ [
      Alcotest.test_case "horn axioms ground to plain cnf" `Quick
        test_horn_axioms_plain_cnf;
    ]
