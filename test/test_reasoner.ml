open Helpers
module F = Logic.Formula

let check = Alcotest.(check bool)

(* ---------------------------------------------------------------- *)
(* DPLL                                                              *)
(* ---------------------------------------------------------------- *)

let test_dpll_basic () =
  check "sat" true
    (match Reasoner.Dpll.solve ~nvars:2 [ [ 1; 2 ]; [ -1 ] ] with
    | Reasoner.Dpll.Sat m -> (not m.(0)) && m.(1)
    | Reasoner.Dpll.Unsat -> false);
  check "unsat" true
    (Reasoner.Dpll.solve ~nvars:1 [ [ 1 ]; [ -1 ] ] = Reasoner.Dpll.Unsat);
  check "empty clause" true
    (Reasoner.Dpll.solve ~nvars:1 [ [] ] = Reasoner.Dpll.Unsat)

let test_dpll_enumerate () =
  (* x1 ∨ x2 has three models. *)
  let ms = Reasoner.Dpll.enumerate ~nvars:2 ~project:[ 1; 2 ] [ [ 1; 2 ] ] in
  Alcotest.(check int) "three models" 3 (List.length ms)

(* Variables admitted without the decision flag still get values: once
   no decision variable is left, the search decides the unassigned rest,
   so the model satisfies every clause and the unconstrained variable 3
   is decided too (two decisions: 1, then 3; 2 is propagated). *)
let test_dpll_decision_safety_net () =
  let s = Reasoner.Dpll.make ~nvars:0 in
  Reasoner.Dpll.ensure_nvars ~decision:(fun _ -> false) s 3;
  Reasoner.Dpll.assert_clause s [ 1; 2 ];
  match Reasoner.Dpll.solve_assuming s [] with
  | Reasoner.Dpll.Unsat -> Alcotest.fail "satisfiable clause set refuted"
  | Reasoner.Dpll.Sat m ->
      check "clause satisfied" true (m.(0) || m.(1));
      let decisions, _, _ = Reasoner.Dpll.counters s in
      Alcotest.(check int) "every variable assigned" 2 decisions

let test_dpll_vs_brute =
  QCheck.Test.make ~name:"dpll agrees with brute force" ~count:60
    QCheck.(pair (int_bound 10000) (int_range 1 4))
    (fun (seed, nvars) ->
      let rng = Random.State.make [| seed |] in
      let nclauses = 1 + Random.State.int rng 8 in
      let clause () =
        let len = 1 + Random.State.int rng 3 in
        List.init len (fun _ ->
            let v = 1 + Random.State.int rng nvars in
            if Random.State.bool rng then v else -v)
      in
      let clauses = List.init nclauses (fun _ -> clause ()) in
      let brute_sat =
        let rec assignments n =
          if n = 0 then [ [] ]
          else
            List.concat_map
              (fun a -> [ true :: a; false :: a ])
              (assignments (n - 1))
        in
        List.exists
          (fun a ->
            let arr = Array.of_list a in
            List.for_all
              (List.exists (fun l ->
                   if l > 0 then arr.(l - 1) else not arr.(-l - 1)))
              clauses)
          (assignments nvars)
      in
      Bool.equal brute_sat
        (match Reasoner.Dpll.solve ~nvars clauses with
        | Reasoner.Dpll.Sat _ -> true
        | Reasoner.Dpll.Unsat -> false))

(* A solver made for n variables stays at n when its clauses mention
   variable n: the model has exactly one entry per variable. *)
let test_dpll_model_length () =
  let n = 5 in
  let s = Reasoner.Dpll.make ~nvars:n in
  List.iter (Reasoner.Dpll.assert_clause s) [ [ 1; -2 ]; [ 2; n ]; [ -n; 3 ] ];
  match Reasoner.Dpll.solve_assuming s [ -1 ] with
  | Reasoner.Dpll.Unsat -> Alcotest.fail "satisfiable clause set refuted"
  | Reasoner.Dpll.Sat m ->
      Alcotest.(check int) "one entry per variable" n (Array.length m)

(* Does the assignment [a] (index v-1 for variable v) satisfy [l]? *)
let holds a l = if l > 0 then a.(l - 1) else not a.(-l - 1)

let sat s assumptions =
  Reasoner.Dpll.solve_assuming s assumptions <> Reasoner.Dpll.Unsat

(* Load [batch] through the slice API, as the engine does: one flat
   [len; lits..] arena, each clause seeded, then asserted. *)
let load_slices s batch =
  let arena =
    Array.of_list (List.concat_map (fun c -> List.length c :: c) batch)
  in
  let i = ref 0 in
  while !i < Array.length arena do
    let len = arena.(!i) in
    Reasoner.Dpll.seed_clause_slice s arena (!i + 1) len;
    Reasoner.Dpll.assert_clause_slice s arena (!i + 1) len;
    i := !i + len + 1
  done

(* Reified cardinality constraints [(l, k, bs)]: l <-> at least k of
   the literals bs hold (each occurrence counts). *)
let card_holds a (l, k, bs) =
  Bool.equal (holds a l) (List.length (List.filter (holds a) bs) >= k)

(* Some assignment of [nvars] variables satisfies every clause of
   [clauses] and every constraint of [cards] (brute force over all
   2^nvars). *)
let brute_sat ?(cards = []) nvars clauses =
  let a = Array.make nvars false in
  let rec go v =
    if v = nvars then
      List.for_all (List.exists (holds a)) clauses
      && List.for_all (card_holds a) cards
    else begin
      a.(v) <- false;
      go (v + 1)
      ||
      (a.(v) <- true;
       go (v + 1))
    end
  in
  go 0

(* The persistent solver as the engine drives it: clauses arrive in
   batches from a flat [len; lits..] arena through the slice API (seeded,
   then asserted), some variables are admitted without their decision
   flag, and solves under random assumptions are interleaved with the
   batches. After
   every solve the verdict must match brute force over all clauses so
   far plus the assumptions, and a model must satisfy all of them. *)
let test_dpll_incremental_vs_brute =
  QCheck.Test.make ~name:"incremental dpll agrees with brute force" ~count:80
    QCheck.(pair (int_bound 100000) (int_range 1 6))
    (fun (seed, nvars) ->
      let rng = Random.State.make [| seed |] in
      let lit () =
        let v = 1 + Random.State.int rng nvars in
        if Random.State.bool rng then v else -v
      in
      let s = Reasoner.Dpll.make ~nvars:(1 + Random.State.int rng nvars) in
      let assignments =
        List.init (1 lsl nvars) (fun bits ->
            Array.init nvars (fun i -> bits land (1 lsl i) <> 0))
      in
      let clauses = ref [] in
      let ok = ref true in
      for _ = 1 to 1 + Random.State.int rng 4 do
        (* admit a few more variables, about a third of them
           non-decision *)
        Reasoner.Dpll.ensure_nvars
          ~decision:(fun _ -> Random.State.int rng 3 > 0)
          s
          (Random.State.int rng (nvars + 1));
        let batch =
          List.init (1 + Random.State.int rng 4) (fun _ ->
              List.init (1 + Random.State.int rng 3) (fun _ -> lit ()))
        in
        load_slices s batch;
        clauses := batch @ !clauses;
        for _ = 1 to 1 + Random.State.int rng 3 do
          let assumptions =
            List.init (Random.State.int rng 3) (fun _ -> lit ())
          in
          let all = List.map (fun l -> [ l ]) assumptions @ !clauses in
          let brute =
            List.exists
              (fun a -> List.for_all (List.exists (holds a)) all)
              assignments
          in
          match Reasoner.Dpll.solve_assuming s assumptions with
          | Reasoner.Dpll.Unsat -> if brute then ok := false
          | Reasoner.Dpll.Sat m ->
              if not (brute && List.for_all (List.exists (holds m)) all) then
                ok := false
        done
      done;
      !ok)

(* The persistent solver on the grounder's clause mix — about 2/3
   binary, 1/3 ternary and a few long clauses, the shape of the
   BioPortal-like corpus — checked by brute force, which shares no code
   with the solver (Bounded does). Batches arrive through the slice API
   and variables are admitted in steps, some without the decision flag.
   After each batch a few solves under random assumptions (with repeats
   and complements) must give brute force's verdict; a model must
   satisfy every clause and assumption, and an Unsat's core must be a
   subset of the assumptions that the clauses alone refute. *)
let test_dpll_grounder_mix_vs_brute =
  QCheck.Test.make
    ~name:"dpll on the grounder's clause mix agrees with brute force"
    ~count:200
    QCheck.(pair (int_bound 100000) (int_range 2 10))
    (fun (seed, nvars) ->
      let rng = Random.State.make [| seed |] in
      let lit () =
        let v = 1 + Random.State.int rng nvars in
        if Random.State.bool rng then v else -v
      in
      let clause () =
        let r = Random.State.int rng 30 in
        let len =
          if r = 0 then 4 + Random.State.int rng 4
          else if r <= 20 then 2
          else 3
        in
        List.init len (fun _ -> lit ())
      in
      let s = Reasoner.Dpll.make ~nvars:0 in
      let clauses = ref [] in
      let ok = ref true in
      for _ = 1 to 1 + Random.State.int rng 5 do
        Reasoner.Dpll.ensure_nvars
          ~decision:(fun _ -> Random.State.int rng 4 > 0)
          s
          (1 + Random.State.int rng nvars);
        let batch =
          List.init (1 + Random.State.int rng (2 * nvars)) (fun _ -> clause ())
        in
        load_slices s batch;
        clauses := batch @ !clauses;
        for _ = 1 to 1 + Random.State.int rng 3 do
          let fresh = List.init (Random.State.int rng 5) (fun _ -> lit ()) in
          let assumptions =
            fresh @ List.filter (fun _ -> Random.State.int rng 3 = 0) fresh
          in
          let units ls = List.map (fun l -> [ l ]) ls in
          let expected = brute_sat nvars (units assumptions @ !clauses) in
          match Reasoner.Dpll.solve_assuming s assumptions with
          | Reasoner.Dpll.Sat m ->
              if
                not
                  (expected
                  && List.for_all (List.exists (holds m)) (units assumptions @ !clauses))
              then ok := false
          | Reasoner.Dpll.Unsat ->
              let core = Reasoner.Dpll.core s in
              if
                expected
                || (not (List.for_all (fun l -> List.mem l assumptions) core))
                || brute_sat nvars (units core @ !clauses)
              then ok := false
        done
      done;
      !ok)

(* The sequential-counter ladder of a constraint, the encoding the
   reference model finder keeps (Ground's atleast_lit), with auxiliaries
   from variable [next] on: its clauses and the next free variable. *)
let ladder next (l, k, bs) =
  let next = ref next and clauses = ref [] in
  let fresh () =
    let v = !next in
    incr next;
    v
  in
  let emit c = clauses := c :: !clauses in
  let or2 x y =
    let a = fresh () in
    emit [ -x; a ];
    emit [ -y; a ];
    emit [ -a; x; y ];
    a
  in
  let and2 x y =
    let a = fresh () in
    emit [ -a; x ];
    emit [ -a; y ];
    emit [ a; -x; -y ];
    a
  in
  let row = Array.make (k + 1) 0 in
  List.iteri
    (fun i b ->
      for j = min (i + 1) k downto 2 do
        let carry = if row.(j - 1) = 0 then 0 else and2 b row.(j - 1) in
        if row.(j) = 0 then row.(j) <- carry
        else if carry <> 0 then row.(j) <- or2 row.(j) carry
      done;
      row.(1) <- (if row.(1) = 0 then b else or2 row.(1) b))
    bs;
  emit [ -l; row.(k) ];
  emit [ l; -row.(k) ];
  (!clauses, !next)

(* The one-shot solver's verdict on [clauses] plus the ladders of
   [cards] over [nvars] variables: the constraint-free encoding. *)
let ladder_sat nvars cards clauses =
  let next = ref (nvars + 1) in
  let laddered =
    List.concat_map
      (fun c ->
        let cs, n = ladder !next c in
        next := n;
        cs)
      cards
  in
  Reasoner.Dpll.solve ~nvars:(!next - 1) (laddered @ clauses) <> Reasoner.Dpll.Unsat

let assert_card s (l, k, bs) =
  let b = Array.of_list bs in
  Reasoner.Dpll.assert_atleast s ~lit:l ~k b 0 (Array.length b)

(* Random constraints over variables 1..[nbase]: constraint i reifies
   into variable nbase + 1 + i, and its n <= 10 b's are base literals
   or earlier constraints' literals, of either sign, repeats allowed (so
   complementary pairs occur), with 1 <= k <= n. *)
let random_cards rng nbase ncards =
  List.init ncards (fun i ->
      let n = 1 + Random.State.int rng 10 in
      let b () =
        let v =
          if i > 0 && Random.State.int rng 4 = 0 then nbase + 1 + Random.State.int rng i
          else 1 + Random.State.int rng nbase
        in
        if Random.State.bool rng then v else -v
      in
      (nbase + 1 + i, 1 + Random.State.int rng n, List.init n (fun _ -> b ())))

(* The persistent solver with reified cardinality constraints mixed
   into the grounder's clause mix (2/3 binary, 1/3 ternary): batches of
   clause slices and constraints arrive with staged admission and
   random decision flags (a constraint's literal is often a
   non-decision variable, as in the engine), and solves under random
   assumptions follow each batch. Each verdict must equal the ladder
   encoding's (through the one-shot solver) and brute force's; a model
   must satisfy every clause and assumption and give each constraint's
   literal the truth of its count; an Unsat's core must be a subset of
   the assumptions that the clauses and constraints refute. *)
let test_dpll_atleast_vs_ladder =
  QCheck.Test.make
    ~name:"dpll cardinality constraints agree with the ladder and brute force"
    ~count:200
    QCheck.(pair (int_bound 100000) (int_range 2 7))
    (fun (seed, nbase) ->
      let rng = Random.State.make [| seed |] in
      let ncards = 1 + Random.State.int rng 3 in
      let nvars = nbase + ncards in
      let pending = ref (random_cards rng nbase ncards) in
      let lit () =
        let v = 1 + Random.State.int rng nvars in
        if Random.State.bool rng then v else -v
      in
      let clause () = List.init (if Random.State.int rng 3 = 0 then 3 else 2) (fun _ -> lit ()) in
      let s = Reasoner.Dpll.make ~nvars:0 in
      let clauses = ref [] and cards = ref [] in
      let ok = ref true in
      while !pending <> [] do
        Reasoner.Dpll.ensure_nvars
          ~decision:(fun v -> v <= nbase && Random.State.int rng 4 > 0)
          s
          (1 + Random.State.int rng nvars);
        let batch = List.init (Random.State.int rng nvars) (fun _ -> clause ()) in
        load_slices s batch;
        clauses := batch @ !clauses;
        (match !pending with
        | c :: rest ->
            assert_card s c;
            cards := c :: !cards;
            pending := rest
        | [] -> ());
        for _ = 1 to 1 + Random.State.int rng 3 do
          let fresh = List.init (Random.State.int rng 5) (fun _ -> lit ()) in
          let assumptions =
            fresh @ List.filter (fun _ -> Random.State.int rng 3 = 0) fresh
          in
          let units ls = List.map (fun l -> [ l ]) ls in
          let expected = brute_sat ~cards:!cards nvars (units assumptions @ !clauses) in
          if ladder_sat nvars !cards (units assumptions @ !clauses) <> expected then
            ok := false;
          match Reasoner.Dpll.solve_assuming s assumptions with
          | Reasoner.Dpll.Sat m ->
              if
                not
                  (expected
                  && List.for_all (List.exists (holds m)) (units assumptions @ !clauses)
                  && List.for_all (card_holds m) !cards)
              then ok := false
          | Reasoner.Dpll.Unsat ->
              let core = Reasoner.Dpll.core s in
              if
                expected
                || (not (List.for_all (fun l -> List.mem l assumptions) core))
                || brute_sat ~cards:!cards nvars (units core @ !clauses)
              then ok := false
        done
      done;
      !ok)

(* A constraint violated by the level-0 assignment: with 5 <-> at least
   2 of {1, 2, 3}, the units 5, -1 and -2 leave one of three b's to
   make two. The search refutes the set at level 0, so the solver is
   refuted for good and every core is [], with or without assumptions. *)
let test_dpll_atleast_level0_core () =
  let s = Reasoner.Dpll.make ~nvars:5 in
  List.iter (Reasoner.Dpll.assert_clause s) [ [ 5 ]; [ -1 ]; [ -2 ] ];
  assert_card s (5, 2, [ 1; 2; 3 ]);
  check "refuted" false (sat s []);
  Alcotest.(check (list int)) "core" [] (Reasoner.Dpll.core s);
  check "refuted under 4" false (sat s [ 4 ]);
  Alcotest.(check (list int)) "core under 4" [] (Reasoner.Dpll.core s)

(* A clause learned from a constraint conflict is implied. With
   ¬5 and 5 <-> at least 2 of {2, 3, 4}, at most one of 2, 3, 4 holds,
   and the clauses 1 ∨ 2 and 1 ∨ 3 make 2 and 3 true together as soon
   as the first decision (variable 1, false first) is made. The
   constraint counts both and conflicts; its explanation 5 ∨ ¬2 ∨ ¬3,
   resolved with the two clauses, teaches the unit 1, which the
   backjump puts at level 0: a later solve under ¬1 fails on it alone,
   with core [¬1], where the constraint and clauses by themselves
   propagate nothing at level 0. Brute force confirms that they imply
   1. *)
let test_dpll_atleast_learned_implied () =
  let card = (5, 2, [ 2; 3; 4 ]) and clauses = [ [ -5 ]; [ 1; 2 ]; [ 1; 3 ] ] in
  let s = Reasoner.Dpll.make ~nvars:5 in
  List.iter (Reasoner.Dpll.assert_clause s) clauses;
  assert_card s card;
  check "satisfiable" true (sat s []);
  let _, _, conflicts = Reasoner.Dpll.counters s in
  Alcotest.(check int) "one constraint conflict" 1 conflicts;
  check "refuted under ¬1" false (sat s [ -1 ]);
  Alcotest.(check (list int)) "the learned unit is at level 0" [ -1 ]
    (Reasoner.Dpll.core s);
  check "the constraints imply it" false (brute_sat ~cards:[ card ] 5 ([ [ -1 ] ] @ clauses))

(* Failed-literal probing of a constraint's b's. With 4 <-> at least 2
   of {1, 2, 3}, the unit 2 and the guard clause ¬1 ∨ ¬4 (1 → ≤1, as
   r(a,y) under ∀x (C(x) → ∀y (r(x,y) → ≤1 r⁻.⊤)) grounds with a second
   r-predecessor of y), 1 refutes itself, but counting cannot see it
   before 1 is true. The clause 1 ∨ 5 ∨ 6, with 5 and 6 seeded to be
   decided first (false first), makes 1 the last witness: a search
   without probing decides 5 and 6, learns ¬1 from the conflict, then
   decides 5 again and 3 (4 decisions, 1 conflict). Probed before the
   search, ¬1 is a level-0 unit: 5 is decided, 6 follows, then 3 is
   decided, and the failed probe is the one conflict. *)
let test_dpll_probe_refutes_guarded_b () =
  let s = Reasoner.Dpll.make ~nvars:0 in
  Reasoner.Dpll.ensure_nvars ~decision:(fun v -> v <> 4) s 6;
  load_slices s [ [ 2 ]; [ -1; -4 ]; [ 1; 5; 6 ] ];
  Reasoner.Dpll.seed_clause_slice s [| 5; 6 |] 0 2;
  Reasoner.Dpll.seed_clause_slice s [| 5; 6 |] 0 2;
  assert_card s (4, 2, [ 1; 2; 3 ]);
  check "satisfiable" true (sat s []);
  let decisions, _, conflicts = Reasoner.Dpll.counters s in
  Alcotest.(check (pair int int)) "decisions, conflicts" (2, 1) (decisions, conflicts);
  check "refuted under 1" false (sat s [ 1 ]);
  Alcotest.(check (list int)) "at level 0" [ 1 ] (Reasoner.Dpll.core s)

(* A probe that propagates without conflict leaves the search
   false-first: b's tried true stay false, so the model is the one
   without probing. *)
let test_dpll_probe_keeps_phases () =
  let s = Reasoner.Dpll.make ~nvars:0 in
  Reasoner.Dpll.ensure_nvars ~decision:(fun v -> v <> 4) s 4;
  load_slices s [ [ 2 ] ];
  assert_card s (4, 2, [ 1; 2; 3 ]);
  match Reasoner.Dpll.solve_assuming s [] with
  | Reasoner.Dpll.Sat m ->
      Alcotest.(check (array bool)) "model" [| false; true; false; false |] m
  | Reasoner.Dpll.Unsat -> Alcotest.fail "unsat"

(* Decisions take the initial phase, whatever earlier solves found
   (DESIGN.md §5, "Branching phase"): under the assumption a, the
   clause ¬a ∨ b makes b true, and a later solve with no assumption
   decides both false again. *)
let test_dpll_branching_ignores_history () =
  let s = Reasoner.Dpll.make ~nvars:2 in
  Reasoner.Dpll.assert_clause s [ -1; 2 ];
  let model assumptions =
    match Reasoner.Dpll.solve_assuming s assumptions with
    | Reasoner.Dpll.Sat m -> m
    | Reasoner.Dpll.Unsat -> Alcotest.fail "unsat"
  in
  Alcotest.(check (array bool)) "under a" [| true; true |] (model [ 1 ]);
  Alcotest.(check (array bool)) "then without" [| false; false |] (model [])

(* A core names the assumptions a refutation rests on, and only those:
   1 → 2 → 3 makes -3 fail under 1, while 4 plays no part. *)
let test_dpll_core_cites_its_assumptions () =
  let s = Reasoner.Dpll.make ~nvars:4 in
  List.iter (Reasoner.Dpll.assert_clause s) [ [ -1; 2 ]; [ -2; 3 ] ];
  check "refuted" false (sat s [ 1; 4; -3 ]);
  Alcotest.(check (list int)) "core" [ -3; 1 ]
    (List.sort compare (Reasoner.Dpll.core s));
  check "satisfiable without 1" true (sat s [ 4; -3 ]);
  Alcotest.(check (list int)) "no core after sat" [] (Reasoner.Dpll.core s)

(* Binary clauses are stored only as binary watches, and a literal they
   imply records the binary clause as its reason; the core must follow
   those reasons back to the assumptions. Under 1, the chain
   1 → 2 → .. → 7 of binary clauses falsifies the assumption -7, with a
   ternary clause (¬3 ∨ ¬8 ∨ 9) and the assumptions 8 and -10 on the
   side: 8 forces 9 through it, and -10 plays no part. The core is
   {1, -7}, and the clauses refute it. *)
let test_dpll_binary_chain_core () =
  let chain = List.init 6 (fun i -> [ -(i + 1); i + 2 ]) in
  let clauses = [ -3; -8; 9 ] :: chain in
  let s = Reasoner.Dpll.make ~nvars:10 in
  load_slices s clauses;
  check "refuted" false (sat s [ -10; 8; 1; -7 ]);
  let core = Reasoner.Dpll.core s in
  Alcotest.(check (list int)) "core" [ -7; 1 ] (List.sort compare core);
  check "core refutes" false
    (brute_sat 10 (List.map (fun l -> [ l ]) core @ clauses));
  check "satisfiable without 1" true (sat s [ -10; 8; -7 ])

(* The four binary clauses over {1, 2} are unsatisfiable with no
   assumption at all: the search refutes them at level 0, and from then
   on every core is []. *)
let test_dpll_binary_refutation_core () =
  let s = Reasoner.Dpll.make ~nvars:3 in
  load_slices s [ [ 1; 2 ]; [ 1; -2 ]; [ -1; 2 ]; [ -1; -2 ] ];
  check "refuted" false (sat s []);
  Alcotest.(check (list int)) "core" [] (Reasoner.Dpll.core s);
  check "refuted under 3" false (sat s [ 3 ]);
  Alcotest.(check (list int)) "core under 3" [] (Reasoner.Dpll.core s)

(* Failed-assumption cores, checked by code other than the solver that
   produced them: on random CNFs over at most 12 variables, a persistent
   solver answers random assumption lists (with duplicates, complements
   and assumptions that earlier ones already make true, i.e. the
   solver's dummy levels). Whenever it answers false, its core is a
   subset of the assumptions, and a fresh one-shot solve of the clauses
   plus the core as unit clauses is unsatisfiable. Once the solver has
   refuted the clauses alone (an empty assumption list answered false),
   every core is empty. A clause set that only search refutes can still
   fail an assumption first: {1∨2, 1∨-2, -1∨2, -1∨-2} under [3; -3]
   reports the core {3, -3}, which is a refutation too. Half the cases
   add up to two reified cardinality constraints (see [random_cards])
   over the clauses' variables, whose literals the clauses and
   assumptions may mention; the one-shot check then solves their
   ladders. *)
let test_dpll_core =
  QCheck.Test.make ~name:"failed-assumption cores refute" ~count:300
    QCheck.(pair (int_bound 100000) (int_range 1 12))
    (fun (seed, nbase) ->
      let rng = Random.State.make [| seed |] in
      let cards =
        if Random.State.bool rng then random_cards rng nbase (Random.State.int rng 3)
        else []
      in
      let nvars = nbase + List.length cards in
      let lit () =
        let v = 1 + Random.State.int rng nvars in
        if Random.State.bool rng then v else -v
      in
      let clauses =
        List.init (1 + Random.State.int rng (3 * nvars)) (fun _ ->
            List.init (1 + Random.State.int rng 3) (fun _ -> lit ()))
      in
      let s = Reasoner.Dpll.make ~nvars in
      List.iter (Reasoner.Dpll.assert_clause s) clauses;
      List.iter (assert_card s) cards;
      let unsat cs = not (ladder_sat nvars cards cs) in
      let refuted_alone = ref false in
      List.for_all
        (fun _ ->
          let assumptions =
            if Random.State.int rng 4 = 0 then []
            else
              let fresh = List.init (Random.State.int rng 8) (fun _ -> lit ()) in
              (* repeat a few, so some are already true when planted *)
              fresh @ List.filter (fun _ -> Random.State.int rng 3 = 0) fresh
          in
          sat s assumptions
          ||
          let core = Reasoner.Dpll.core s in
          let ok =
            List.for_all (fun l -> List.mem l assumptions) core
            && unsat (List.map (fun l -> [ l ]) core @ clauses)
            && ((not !refuted_alone) || core = [])
          in
          if assumptions = [] then refuted_alone := true;
          ok)
        (List.init 8 Fun.id))

(* ---------------------------------------------------------------- *)
(* Bounded model finding                                             *)
(* ---------------------------------------------------------------- *)

let test_consistency () =
  (* ∀x (D(x) → A(x) ∨ B(x)) with D(a): consistent. *)
  check "disj consistent" true
    (Reasoner.Bounded.is_consistent o_disj (inst [ ("D", [ "a" ]) ]));
  (* A ⊓ ¬A: inconsistent. *)
  let contradiction =
    Logic.Ontology.make
      [ forall_eq "x" (F.Implies (atom "D" [ v "x" ], F.And (atom "A" [ v "x" ], F.Not (atom "A" [ v "x" ])))) ]
  in
  check "contradiction" false
    (Reasoner.Bounded.is_consistent contradiction (inst [ ("D", [ "a" ]) ]))

let test_certain_disjunctive () =
  (* O = D ⊑ A ⊔ B, D = {D(a)}: A(a) ∨ B(a) is certain, neither disjunct is. *)
  let d = inst [ ("D", [ "a" ]) ] in
  let qa = cq ~answer:[ "x" ] [ ("A", [ v "x" ]) ] in
  let qb = cq ~answer:[ "x" ] [ ("B", [ v "x" ]) ] in
  check "A or B certain" true
    (Reasoner.Bounded.certain_disjunction o_disj d [ (qa, [ e "a" ]); (qb, [ e "a" ]) ]);
  check "A not certain" false (Reasoner.Bounded.certain_cq o_disj d qa [ e "a" ]);
  check "B not certain" false (Reasoner.Bounded.certain_cq o_disj d qb [ e "a" ]);
  check "UCQ A|B certain" true
    (Reasoner.Bounded.certain_ucq o_disj d (ucq [ qa; qb ]) [ e "a" ])

let test_certain_horn () =
  (* o_horn: A(a) entails ∃y R(a,y) ∧ B(y), hence C(a). *)
  let d = inst [ ("A", [ "a" ]) ] in
  let qc = cq ~answer:[ "x" ] [ ("C", [ v "x" ]) ] in
  let qrb = cq ~answer:[ "x" ] [ ("R", [ v "x"; v "y" ]); ("B", [ v "y" ]) ] in
  check "R.B certain" true (Reasoner.Bounded.certain_cq ~max_extra:2 o_horn d qrb [ e "a" ]);
  check "C certain" true (Reasoner.Bounded.certain_cq ~max_extra:2 o_horn d qc [ e "a" ]);
  let qb = cq ~answer:[ "x" ] [ ("B", [ v "x" ]) ] in
  check "B(a) not certain" false (Reasoner.Bounded.certain_cq o_horn d qb [ e "a" ])

let test_hand_finger () =
  (* Section 1's example: O1 ∪ O2 over a hand with five fingers forces a
     thumb among them, but no particular finger is a thumb. *)
  let fingers = [ "f1"; "f2"; "f3"; "f4"; "f5" ] in
  let d =
    inst (("Hand", [ "h" ]) :: List.map (fun f -> ("hasFinger", [ "h"; f ])) fingers)
  in
  let qt = cq ~answer:[ "x" ] [ ("Thumb", [ v "x" ]) ] in
  (* with O2 alone: thumb is certain only as an existential *)
  let q_has_thumb =
    cq ~answer:[ "x" ] [ ("hasFinger", [ v "x"; v "y" ]); ("Thumb", [ v "y" ]) ]
  in
  check "O2: hand has a thumb finger" true
    (Reasoner.Bounded.certain_cq ~max_extra:1 o_hand_thumb d q_has_thumb [ e "h" ]);
  check "O2: f1 need not be a thumb" false
    (Reasoner.Bounded.certain_cq o_hand_thumb d qt [ e "f1" ]);
  (* with the union: the five named fingers are all the fingers, so one
     of them must be the thumb — a certain disjunction with no certain
     disjunct (non-materializability). *)
  let pointed = List.map (fun f -> (qt, [ e f ])) fingers in
  check "union: disjunction certain" true
    (Reasoner.Bounded.certain_disjunction ~max_extra:1 o_hand_union d pointed);
  check "union: f1 thumb not certain" false
    (Reasoner.Bounded.certain_cq ~max_extra:1 o_hand_union d qt [ e "f1" ]);
  (* with O1 ∪ O2 but only 4 named fingers, the thumb may be the fifth *)
  let d4 =
    inst
      (("Hand", [ "h" ])
      :: List.map (fun f -> ("hasFinger", [ "h"; f ])) [ "f1"; "f2"; "f3"; "f4" ])
  in
  check "4 fingers: disjunction not certain" false
    (Reasoner.Bounded.certain_disjunction ~max_extra:1 o_hand_union d4
       (List.map (fun f -> (qt, [ e f ])) [ "f1"; "f2"; "f3"; "f4" ]))

let test_countermodel_is_model () =
  let d = inst [ ("D", [ "a" ]) ] in
  let qa = cq ~answer:[ "x" ] [ ("A", [ v "x" ]) ] in
  match Reasoner.Bounded.countermodel o_disj d (ucq [ qa ]) [ e "a" ] with
  | None -> Alcotest.fail "expected a countermodel"
  | Some m ->
      check "contains D" true (Structure.Instance.subset d m);
      check "is model of O" true
        (Structure.Modelcheck.is_model m (Logic.Ontology.all_sentences o_disj));
      check "refutes query" false (Query.Cq.holds m qa [ e "a" ])

(* ---------------------------------------------------------------- *)
(* Chase                                                             *)
(* ---------------------------------------------------------------- *)

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

let test_chase_horn () =
  let d = inst [ ("A", [ "a" ]) ] in
  let r = Reasoner.Chase.run horn_rules d in
  let qc = cq ~answer:[ "x" ] [ ("C", [ v "x" ]) ] in
  check "C derived" true (Query.Cq.holds r.instance qc [ e "a" ]);
  (* chase result is a model of the rules: the bounded engine agrees *)
  check "agrees with bounded engine" true
    (Reasoner.Bounded.certain_cq ~max_extra:2 o_horn d qc [ e "a" ])

let test_chase_restricted () =
  (* If the head is already satisfied, the chase adds nothing. *)
  let d = inst [ ("A", [ "a" ]); ("R", [ "a"; "b" ]); ("B", [ "b" ]) ] in
  let r = Reasoner.Chase.run horn_rules d in
  check "no fresh nulls" true
    (Structure.Element.Set.for_all Structure.Element.is_const
       (Structure.Instance.domain r.instance))

(* R(x,y), S(y,z) → R(x,z) walks R one S-step further per round: a
   60-step S-chain takes 60 rounds to close, and the chase has no round
   cap, so R(a,b60) is derived. *)
let test_chase_long_chain () =
  let n = 60 in
  let b i = "b" ^ string_of_int i in
  let d = inst (("R", [ "a"; b 0 ]) :: List.init n (fun i -> ("S", [ b i; b (i + 1) ]))) in
  let rules =
    [
      Reasoner.Chase.rule ~name:"compose"
        ~body:[ ("R", [ v "x"; v "y" ]); ("S", [ v "y"; v "z" ]) ]
        ~head:[ ("R", [ v "x"; v "z" ]) ]
        ();
    ]
  in
  let r = Reasoner.Chase.run rules d in
  check "R(a,b60)" true
    (Structure.Instance.mem (Structure.Instance.fact "R" [ e "a"; e (b n) ]) r.instance);
  Alcotest.(check int) "R(a,b0) .. R(a,b60)" (n + 1)
    (List.length (Structure.Instance.tuples "R" r.instance))

let test_chase_egd () =
  let rules = [] in
  let func_egd =
    Reasoner.Chase.egd ~name:"func_R"
      ~body:[ ("R", [ v "x"; v "y" ]); ("R", [ v "x"; v "z" ]) ]
      ~left:"y" ~right:"z" ()
  in
  (* merging a null into a constant *)
  let d =
    Structure.Instance.of_facts
      [
        Structure.Instance.fact "R" [ e "a"; e "b" ];
        Structure.Instance.fact "R" [ e "a"; Structure.Element.Null 0 ];
      ]
  in
  let r = Reasoner.Chase.run ~egds:[ func_egd ] rules d in
  Alcotest.(check int) "one fact left" 1 (Structure.Instance.cardinal r.instance);
  (* two distinct constants: failure *)
  let d2 = inst [ ("R", [ "a"; "b" ]); ("R", [ "a"; "c" ]) ] in
  check "egd failure" true
    (try
       ignore (Reasoner.Chase.run ~egds:[ func_egd ] rules d2);
       false
     with Reasoner.Chase.Egd_failure _ -> true)

let suite =
  [
    Alcotest.test_case "dpll_basic" `Quick test_dpll_basic;
    Alcotest.test_case "dpll_enumerate" `Quick test_dpll_enumerate;
    Alcotest.test_case "dpll_decision_safety_net" `Quick
      test_dpll_decision_safety_net;
    QCheck_alcotest.to_alcotest test_dpll_vs_brute;
    Alcotest.test_case "dpll_model_length" `Quick test_dpll_model_length;
    QCheck_alcotest.to_alcotest test_dpll_incremental_vs_brute;
    QCheck_alcotest.to_alcotest test_dpll_grounder_mix_vs_brute;
    Alcotest.test_case "dpll_core_cites_its_assumptions" `Quick
      test_dpll_core_cites_its_assumptions;
    Alcotest.test_case "dpll_binary_chain_core" `Quick test_dpll_binary_chain_core;
    Alcotest.test_case "dpll_binary_refutation_core" `Quick
      test_dpll_binary_refutation_core;
    QCheck_alcotest.to_alcotest test_dpll_core;
    QCheck_alcotest.to_alcotest test_dpll_atleast_vs_ladder;
    Alcotest.test_case "dpll_atleast_level0_core" `Quick test_dpll_atleast_level0_core;
    Alcotest.test_case "dpll_atleast_learned_implied" `Quick
      test_dpll_atleast_learned_implied;
    Alcotest.test_case "dpll_probe_refutes_guarded_b" `Quick
      test_dpll_probe_refutes_guarded_b;
    Alcotest.test_case "dpll_probe_keeps_phases" `Quick test_dpll_probe_keeps_phases;
    Alcotest.test_case "dpll_branching_ignores_history" `Quick
      test_dpll_branching_ignores_history;
    Alcotest.test_case "consistency" `Quick test_consistency;
    Alcotest.test_case "certain_disjunctive" `Quick test_certain_disjunctive;
    Alcotest.test_case "certain_horn" `Quick test_certain_horn;
    Alcotest.test_case "hand_finger" `Quick test_hand_finger;
    Alcotest.test_case "countermodel_is_model" `Quick test_countermodel_is_model;
    Alcotest.test_case "chase_horn" `Quick test_chase_horn;
    Alcotest.test_case "chase_restricted" `Quick test_chase_restricted;
    Alcotest.test_case "chase_long_chain" `Quick test_chase_long_chain;
    Alcotest.test_case "chase_egd" `Quick test_chase_egd;
  ]
