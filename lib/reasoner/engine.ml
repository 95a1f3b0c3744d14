module SMap = Logic.Names.SMap
module F = Logic.Formula

(* The incremental certain-answer engine of one (O, D). A certain
   answer is decided by looking for a countermodel over dom(D) plus 0,
   1, ..., max_extra fresh nulls. The engine grounds (O, D) ONCE, over
   dom(D) plus m nulls, where m is the largest ceiling it has been asked
   for, into a persistent CDCL solver; a call with a larger ceiling
   grounds once more, at that ceiling. Each null n_j has an activity
   variable act_j (Ground's activity: the active nulls form a prefix,
   and a fact over a null implies it is active), and the ontology is
   relativised to active elements, so the grounding's models restrict to
   exactly the models of (O, D) over dom(D) plus n_1..n_k, for every
   k <= m — the incremental domain-size technique of MACE-style model
   finders (Claessen–Sörensson 2003). Bound k is the assumption pair
   act_k, ¬act_{k+1}; ceiling c is the single assumption ¬act_{c+1}
   with act_1..act_c free, so one solve searches bounds 0..c at once: a
   countermodel at some k <= c exists iff that solve is satisfiable, and
   one refutation covers every bound. Per-tuple certainty queries solve
   under assumption literals (the negated reified query instantiation)
   instead of rebuilding clauses, and learned clauses accumulate across
   tuples and bounds.

   Query reifications are Tseitin *equivalences* (Ground.reify), i.e.
   definitional extensions: adding them never changes satisfiability of
   the base problem, which keeps every learned clause sound as more
   queries arrive. The same growth argument keeps each recorded proof
   (the facts of a refutation's failed-assumption core) valid while its
   facts stay assumed.

   Budgets: every operation accepts a [?budget] and installs it on the
   grounder and solver for the duration of the call. A trip raises
   [Budget.Exhausted] but never corrupts the engine: a grounding is
   stored only once it completed, cancellation points sit where the
   solver's invariants hold, and a partially-emitted query reification
   is an unreferenced definitional fragment that later solves may
   freely satisfy. The engine answers subsequent (unbudgeted) queries
   exactly like a fresh engine — the test suite proves this by fault
   injection. *)

(* ------------------------------------------------------------------ *)
(* Relativisation to active elements                                    *)
(* ------------------------------------------------------------------ *)

(* The argument lists of the atoms whose falsity makes [f] false. An
   atom with an inactive null among its arguments is false (its fact
   would make the null active). *)
let rec needs (f : F.t) =
  match f with
  | F.Atom (_, ts) -> [ ts ]
  | F.And (a, b) -> needs a @ needs b
  | F.Not g -> spares g
  | _ -> []

(* The argument lists of the atoms whose falsity makes [f] true. *)
and spares (f : F.t) =
  match f with
  | F.Implies (a, b) -> needs a @ spares b
  | F.Or (a, b) -> spares a @ spares b
  | F.Not g -> needs g
  | _ -> []

(* The variables of [xs] that no atom of [atoms] mentions. *)
let unguarded xs atoms =
  List.filter
    (fun x -> not (List.exists (List.mem (Logic.Term.Var x)) atoms))
    xs

let activity xs =
  F.conj (List.map (fun x -> F.Atom (Ground.active, [ Logic.Term.Var x ])) xs)

(* [f] with every quantifier ranging over active elements. A quantifier
   whose own atoms mention each variable it binds needs nothing: a
   binding to an inactive null falsifies such an atom, which makes a
   ∀ body true and an ∃ or ∃≥n body false, exactly as if the null were
   absent. Every other quantifier (⊤- or equality-guarded ones) gets an
   [active] premise or conjunct for its unguarded variables. *)
let rec relativize (f : F.t) =
  match f with
  | F.True | F.False | F.Atom _ | F.Eq _ -> f
  | F.Not g -> F.Not (relativize g)
  | F.And (a, b) -> F.And (relativize a, relativize b)
  | F.Or (a, b) -> F.Or (relativize a, relativize b)
  | F.Implies (a, b) -> F.Implies (relativize a, relativize b)
  | F.Forall (xs, g) -> (
      let g = relativize g in
      match unguarded xs (spares g) with
      | [] -> F.Forall (xs, g)
      | free -> F.Forall (xs, F.Implies (activity free, g)))
  | F.Exists (xs, g) -> (
      let g = relativize g in
      match unguarded xs (needs g) with
      | [] -> F.Exists (xs, g)
      | free -> F.Exists (xs, F.And (activity free, g)))
  | F.CountGeq (n, x, g) -> (
      let g = relativize g in
      match unguarded [ x ] (needs g) with
      | [] -> F.CountGeq (n, x, g)
      | free -> F.CountGeq (n, x, F.And (activity free, g)))

(* ------------------------------------------------------------------ *)
(* The grounding                                                        *)
(* ------------------------------------------------------------------ *)

(* One grounding of (O, D) with [ceiling] fresh nulls. *)
type grounding = {
  ceiling : int;
  ground : Ground.t;
  solver : Dpll.t;
  (* The relations grounded: O's, [extra_signature]'s and those admitted
     since (query relations). D's facts of other relations meet no
     clause; they stay in the engine's instance, which every extracted
     model starts from. *)
  mutable rels : Logic.Signature.t;
  (* The variables of D's facts of grounded relations: unit clauses on a
     static engine, persistent solver assumptions on a dynamic one.
     Assumptions never enter learned clauses ("learned clauses persist;
     assumptions do not"), so an insertion adds one and a retraction
     drops one without rebuilding the solver. [fact_assumptions] lists
     the assumed ones (empty on a static engine). *)
  known : (int, unit) Hashtbl.t;
  mutable fact_assumptions : int list;
  mutable synced_vars : int;  (* variables already admitted to the solver *)
  reified : (Logic.Formula.t * (string * Structure.Element.t) list, int) Hashtbl.t;
  (* per-grounding caches for the per-tuple hot path: the relativised
     formula of each disjunct (physical keys — engines see a handful of
     CQs, each shared across every candidate tuple) and the formulas
     whose relations are already admitted, so only the first tuple of a
     query pays [Cq.to_formula] and [Signature.of_formula] *)
  mutable cq_formulas : (Query.Cq.t * Logic.Formula.t) list;
  mutable signed : Logic.Formula.t list;
  mutable budget : Budget.t;  (* installed per call; unlimited at rest *)
  (* the proof memo: each refuted pointed disjunction with the ceiling
     it was refuted under and the fact variables of its
     failed-assumption core (Dpll.core). The clause set only grows —
     reifications are definitional, learned clauses implied — so the
     core refutes the disjunction for as long as those facts are
     assumed, at every ceiling up to its own: inserts keep every proof,
     a retract voids only the proofs that cite it. Static engines
     assert facts as unit clauses, so their cores cite no fact and never
     lapse. One table per list of disjuncts (physical keys, as
     [cq_formulas]), keyed by the tuples so that the hash covers them. *)
  mutable proofs :
    (Query.Cq.t list
    * (Structure.Element.t list list, int * int list) Hashtbl.t)
    list;
}

(* A kept countermodel: a model of O and the D it was found under,
   over dom(D) plus [nulls] active nulls. It is live while it contains
   the current D ([missing] = 0); [born] is the insert generation it was
   found in. *)
type witness = {
  model : Structure.Instance.t;
  nulls : int;
  born : int;
  mutable missing : int;  (* facts of the current D it lacks *)
}

type t = {
  ontology : Logic.Ontology.t;
  extra_signature : Logic.Signature.t;
  dynamic : bool;
  mutable instance : Structure.Instance.t;
  mutable relativized : F.t list option;  (* O's sentences, once needed *)
  mutable grounding : grounding option;
  (* The countermodels found: a live one refutes every tuple whose query
     it falsifies at every ceiling >= its [nulls], so most non-answers
     are settled by direct evaluation instead of a solver call. A new
     one is kept only when no live one refuted the tuple. They do not
     depend on the grounding (a larger ceiling keeps them). An insert
     suspends those lacking a new fact and a retract revives them;
     DESIGN.md §5, "Witness reuse", has the rule. *)
  mutable witnesses : witness list;
  (* The insert generation (0 until the first insert), and the
     generation each inserted fact of D arrived in (D's base facts are
     absent: generation 0). *)
  mutable generation : int;
  arrived : (Structure.Instance.fact, int) Hashtbl.t;
  (* O and D have no model at any ceiling up to this one (-1: none
     known); reset by a retract *)
  mutable inconsistent_upto : int;
  stats : Stats.t;
}

let create ?(extra_signature = Logic.Signature.empty) ?(dynamic = false) o d =
  {
    ontology = o;
    extra_signature;
    dynamic;
    instance = d;
    relativized = None;
    grounding = None;
    witnesses = [];
    generation = 0;
    arrived = Hashtbl.create 16;
    inconsistent_upto = -1;
    stats = Stats.create ();
  }

let ontology t = t.ontology
let instance t = t.instance
let is_dynamic t = t.dynamic

let stats t = t.stats

let empty_domain t =
  Structure.Element.Set.is_empty (Structure.Instance.domain t.instance)

(* The ceiling of a call. Over an empty D, bound 0 is the one-element
   domain {e0} and bound 1 is {n_1}: one structure up to naming, so the
   ceiling is at least 1 and n_1 stands in for e0 (Ground activates it
   whatever the assumptions). *)
let ceiling t max_extra =
  let c = Option.value max_extra ~default:Problem.default_max_extra in
  if c = 0 && empty_domain t then 1 else c

(* Run [f] with [budget] installed on the grounding (both here and on
   the grounder), restoring the unlimited budget afterwards — including
   on an [Exhausted] trip, so a grounding is never left with a spent
   budget attached. *)
let with_budget g budget f =
  g.budget <- budget;
  Ground.set_budget g.ground budget;
  Fun.protect
    ~finally:(fun () ->
      g.budget <- Budget.unlimited;
      Ground.set_budget g.ground Budget.unlimited)
    f

(* Hand the clauses and cardinality constraints produced by the
   grounder since the last sync to the persistent solver, straight from
   the clause arena, which they then leave. New Tseitin auxiliaries (a
   constraint's reified literal among them) are admitted without the
   decision flag: propagation fixes them from the facts, so the solver
   branches on facts (and activity) alone, false first, and a
   countermodel holds only the facts and nulls O and D force — a
   near-minimal witness that refutes every non-answer at once on Horn
   inputs. A constraint's b's are seeded as one clause. The records
   loaded and the time taken go to the engine's stats ([clauses],
   [load_seconds]); the [engine.sync] span carries the records pushed
   and the variables admitted, so clause loading is visible apart from
   grounding (at creation) and settlement (per candidate). *)
let sync t g =
  Obs.Trace.with_span "engine.sync" @@ fun () ->
  let t0 = Obs.Clock.now () in
  let n = Ground.nvars g.ground in
  let fresh = n - g.synced_vars in
  Dpll.ensure_nvars ~decision:(Ground.is_fact_var g.ground) g.solver n;
  g.synced_vars <- n;
  let clauses = ref 0 in
  Ground.iter_pending g.ground
    ~atleast:(fun ~k ~lit buf off n ->
      incr clauses;
      Dpll.seed_clause_slice g.solver buf off n;
      Dpll.assert_atleast g.solver ~lit ~k buf off n)
    (fun buf off len ->
      incr clauses;
      Dpll.seed_clause_slice g.solver buf off len;
      Dpll.assert_clause_slice g.solver buf off len);
  t.stats.Stats.clauses <- t.stats.Stats.clauses + !clauses;
  t.stats.Stats.load_seconds <-
    t.stats.Stats.load_seconds +. (Obs.Clock.now () -. t0);
  if Obs.Trace.enabled () then begin
    Obs.Trace.add_attr "clauses" (Obs.Trace.Int !clauses);
    Obs.Trace.add_attr "vars" (Obs.Trace.Int fresh)
  end

let grounded rels (f : Structure.Instance.fact) =
  Logic.Signature.arity f.rel rels = Some (List.length f.args)

(* D's fact [f] of a grounded relation joins the grounding: asserted on
   a static engine, assumed on a dynamic one. *)
let add_fact t g f =
  let v = Ground.fact_var g.ground f in
  if not (Hashtbl.mem g.known v) then begin
    if not t.dynamic then Ground.assert_fact g.ground f;
    Hashtbl.replace g.known v ();
    if t.dynamic then g.fact_assumptions <- v :: g.fact_assumptions
  end

let sentences t m =
  let all = Logic.Ontology.all_sentences t.ontology in
  if m = 0 then all
  else
    match t.relativized with
    | Some fs -> fs
    | None ->
        let fs = List.map relativize all in
        t.relativized <- Some fs;
        fs

(* Ground (O, D) with [m] fresh nulls: the relations of O and
   [extra_signature], D's facts of those, and O relativised to active
   elements. A trip raises out of here before the caller stores the
   grounding, so the engine keeps the one it had. *)
let build ~budget t m =
  Obs.Trace.with_span
    ~attrs:[ ("extra", Obs.Trace.Int m); ("dynamic", Obs.Trace.Bool t.dynamic) ]
    "engine.ground"
    (fun () ->
      let t0 = Obs.Clock.now () in
      (* a grounding that trips still spent its time grounding *)
      Fun.protect ~finally:(fun () ->
          t.stats.Stats.ground_seconds <- t.stats.Stats.ground_seconds +. (Obs.Clock.now () -. t0))
      @@ fun () ->
      let rels =
        Logic.Signature.union (Logic.Ontology.signature t.ontology) t.extra_signature
      in
      let domain = Problem.domain ~extra:m t.instance in
      let g =
        Obs.Trace.with_span ~attrs:[ ("extra", Obs.Trace.Int m) ] "ground.build"
        @@ fun () ->
        let ground =
          Ground.create ~budget ~nulls:m ~encoding:`Engine ~domain
            ~signature:rels ()
        in
        let g =
          {
            ceiling = m;
            ground;
            solver = Dpll.make ~nvars:0;
            rels;
            known = Hashtbl.create 64;
            fact_assumptions = [];
            synced_vars = 0;
            reified = Hashtbl.create 64;
            cq_formulas = [];
            signed = [];
            budget;
            proofs = [];
          }
        in
        Fun.protect
          ~finally:(fun () ->
            g.budget <- Budget.unlimited;
            Ground.set_budget ground Budget.unlimited)
          (fun () ->
            Structure.Instance.iter_facts
              (fun f -> if grounded rels f then add_fact t g f)
              t.instance;
            List.iter (Ground.assert_formula ground) (sentences t m));
        if Obs.Trace.enabled () then begin
          Obs.Trace.add_attr "domain" (Obs.Trace.Int (List.length domain));
          Obs.Trace.add_attr "vars" (Obs.Trace.Int (Ground.nvars ground))
        end;
        g
      in
      sync t g;
      t.stats.Stats.groundings <- t.stats.Stats.groundings + 1;
      if Obs.Trace.enabled () then
        Obs.Trace.add_attr "vars" (Obs.Trace.Int (Ground.nvars g.ground));
      g)

(* The grounding for ceiling [c]: the current one when it reaches [c],
   else a new one at [c], grounded under [budget]. *)
let grounding ~budget t c =
  match t.grounding with
  | Some g when g.ceiling >= c -> g
  | _ ->
      let g = build ~budget t c in
      t.grounding <- Some g;
      g

(* Ceiling [c] leaves the nulls past n_c inactive and the rest free. *)
let up_to g c = if c < g.ceiling then [ -Ground.activity g.ground (c + 1) ] else []

(* Exactly bound [k]: n_1..n_k active, the rest not. *)
let exactly g k = if k > 0 then Ground.activity g.ground k :: up_to g k else up_to g k

(* The largest ceiling an Unsat under [up_to g c] refutes at: [c] when
   its core cites the ceiling's assumption, the grounding's otherwise. *)
let refuted_upto g c core =
  match up_to g c with [ l ] when List.mem l core -> c | _ -> g.ceiling

(* One solver invocation under the installed budget, with counters and
   wall time credited (also on a budget trip, via protect). *)
let instrumented t g n_assumptions f =
  Obs.Trace.with_span
    ~attrs:[ ("assumptions", Obs.Trace.Int n_assumptions) ]
    "engine.solve"
    (fun () ->
      let d0, p0, c0 = Dpll.counters g.solver in
      let t0 = Obs.Clock.now () in
      Fun.protect
        ~finally:(fun () ->
          let dt = Obs.Clock.now () -. t0 in
          let d1, p1, c1 = Dpll.counters g.solver in
          let s = t.stats in
          s.Stats.solves <- s.Stats.solves + 1;
          s.Stats.decisions <- s.Stats.decisions + (d1 - d0);
          s.Stats.propagations <- s.Stats.propagations + (p1 - p0);
          s.Stats.conflicts <- s.Stats.conflicts + (c1 - c0);
          s.Stats.solve_seconds <- s.Stats.solve_seconds +. dt;
          if Obs.Trace.enabled () then begin
            Obs.Trace.add_attr "decisions" (Obs.Trace.Int (d1 - d0));
            Obs.Trace.add_attr "conflicts" (Obs.Trace.Int (c1 - c0))
          end)
        f)

(* Dynamic engines prepend the fact assumptions to every solve. *)
let run_solver t g assumptions =
  let assumptions =
    if g.fact_assumptions == [] then assumptions
    else List.rev_append g.fact_assumptions assumptions
  in
  instrumented t g (List.length assumptions) (fun () ->
      Dpll.solve_assuming ~budget:g.budget g.solver assumptions)

(* A raw solver model as an instance: D plus what the model adds. *)
let model_of t g m =
  Ground.extend_model g.ground m ~known:(Hashtbl.mem g.known) t.instance

let keep_witness t g m =
  let w =
    {
      model = model_of t g m;
      nulls = Ground.active_nulls g.ground m;
      born = t.generation;
      missing = 0;
    }
  in
  t.witnesses <- w :: t.witnesses

(* [w] is live and within ceiling [c]. *)
let usable c w = w.missing = 0 && w.nulls <= c

(* The facts of [facts] that [w] lacks. *)
let lacking w facts =
  List.fold_left
    (fun n f -> if Structure.Instance.mem f w.model then n else n + 1)
    0 facts

(* Admit the relations of [sg] into the grounding. D's facts of a newly
   admitted relation join it as they would have at grounding time. Only
   once all have joined is the relation marked admitted, so a trip in
   between redoes the admission next time. *)
let admit t g sg =
  if not (Logic.Signature.subset sg g.rels) then begin
    Ground.ensure_signature g.ground sg;
    let fresh =
      Logic.Signature.of_list
        (List.filter
           (fun (r, _) -> not (Logic.Signature.mem r g.rels))
           (Logic.Signature.to_list sg))
    in
    Structure.Instance.iter_facts
      (fun f -> if grounded fresh f then add_fact t g f)
      t.instance;
    g.rels <- Logic.Signature.union g.rels sg
  end

(* The literal equivalent to [f] under [env], memoized per grounding.
   New relations are admitted on demand (with D's facts of them). The
   memo entry is written only after the reification is fully emitted, so
   a budget trip mid-reification leaves no dangling entry — the next
   call redoes the (idempotent) admission and emits a fresh, complete
   reification. *)
let reified_lit ?(env = SMap.empty) t g f =
  let key = (f, SMap.bindings env) in
  match Hashtbl.find_opt g.reified key with
  | Some l -> l
  | None ->
      if not (List.memq f g.signed) then begin
        admit t g (Logic.Signature.of_formula f);
        g.signed <- f :: g.signed
      end;
      let l = Ground.reify ~env g.ground f in
      sync t g;
      Hashtbl.replace g.reified key l;
      l

let formula_of_cq g cq =
  match List.find_opt (fun (c, _) -> c == cq) g.cq_formulas with
  | Some (_, f) -> f
  | None ->
      let f = Query.Cq.to_formula cq in
      let f = if g.ceiling > 0 then relativize f else f in
      g.cq_formulas <- (cq, f) :: g.cq_formulas;
      f

let answer_env (q : Query.Cq.t) tuple =
  List.fold_left2
    (fun env v e -> SMap.add v e env)
    SMap.empty q.Query.Cq.answer tuple

(* The reified instantiation of each pointed CQ, positive when wanted. *)
let signed_lits t g flagged =
  List.map
    (fun (cq, tuple, wanted) ->
      let l = reified_lit ~env:(answer_env cq tuple) t g (formula_of_cq g cq) in
      if wanted then l else -l)
    flagged

(* [w] already demonstrates O,D ⊭ ⋁ qᵢ(āᵢ): every disjunct fails on it. *)
let witness_refutes w pointed =
  List.for_all (fun (cq, tuple) -> not (Query.Cq.holds w.model cq tuple)) pointed

let proof_table g pointed =
  let cqs = List.map fst pointed in
  match List.find_opt (fun (c, _) -> List.equal ( == ) c cqs) g.proofs with
  | Some (_, tbl) -> tbl
  | None ->
      let tbl = Hashtbl.create 64 in
      g.proofs <- (cqs, tbl) :: g.proofs;
      tbl

(* ------------------------------------------------------------------ *)
(* Entry points                                                         *)
(* ------------------------------------------------------------------ *)

(* Consistent at ceiling [c]: a live kept model within it, or one solve
   with the nulls up to n_c free. *)
let is_consistent ?(budget = Budget.unlimited) ?max_extra t =
  let c = ceiling t max_extra in
  c >= 0
  && (List.exists (usable c) t.witnesses
     || c > t.inconsistent_upto
        &&
        let g = grounding ~budget t c in
        with_budget g budget (fun () ->
            match run_solver t g (up_to g c) with
            | Dpll.Sat m ->
                keep_witness t g m;
                true
            | Dpll.Unsat ->
                t.inconsistent_upto <-
                  max t.inconsistent_upto (refuted_upto g c (Dpll.core g.solver));
                false))

(* The bound walk stays here: the first bound with a model is the one a
   caller asked for, so each bound is one solve under [exactly]. *)
let signed_model ?(budget = Budget.unlimited) ?max_extra t flagged =
  let c = ceiling t max_extra in
  if c < 0 then None
  else
    let g = grounding ~budget t c in
    let first = if empty_domain t then 1 else 0 in
    with_budget g budget (fun () ->
        let lits = signed_lits t g flagged in
        Problem.deepen ~max_extra:c (fun k ->
            if k < first then None
            else
              match run_solver t g (exactly g k @ lits) with
              | Dpll.Unsat -> None
              | Dpll.Sat m -> Some (model_of t g m)))

(* Certain at ceiling [c]. The hot path needs no solver call: a proof
   under a ceiling >= [c] whose facts are all still assumed settles an
   answer, and a live kept countermodel within [c] — direct CQ
   evaluation — settles most non-answers. Only when neither does is a countermodel
   searched for, in one solve across every bound up to [c]; a Sat keeps
   the countermodel, an Unsat records its proof. Over a batch of n²
   candidate tuples one countermodel typically settles nearly all
   non-answers. *)
let certain_disjunction ?(budget = Budget.unlimited) ?max_extra t pointed =
  let c = ceiling t max_extra in
  let tuples = List.map snd pointed in
  let proved () =
    match t.grounding with
    | Some g when g.ceiling >= c -> (
        match Hashtbl.find_opt (proof_table g pointed) tuples with
        | Some (upto, facts) ->
            upto >= c && List.for_all (Hashtbl.mem g.known) facts
        | None -> false)
    | _ -> false
  in
  c < 0
  || proved ()
  || (not
        (List.exists
           (fun w -> usable c w && witness_refutes w pointed)
           t.witnesses))
     &&
     let g = grounding ~budget t c in
     with_budget g budget (fun () ->
         let lits =
           signed_lits t g (List.map (fun (cq, a) -> (cq, a, false)) pointed)
         in
         match run_solver t g (up_to g c @ lits) with
         | Dpll.Sat m ->
             keep_witness t g m;
             false
         | Dpll.Unsat ->
             let core = Dpll.core g.solver in
             Hashtbl.replace (proof_table g pointed) tuples
               (refuted_upto g c core, List.filter (Hashtbl.mem g.known) core);
             true)

let certain_ucq ?budget ?max_extra t q tuple =
  if List.length tuple <> Query.Ucq.arity q then
    invalid_arg "Engine.certain_ucq: tuple arity mismatch";
  certain_disjunction ?budget ?max_extra t
    (List.map (fun cq -> (cq, tuple)) (Query.Ucq.disjuncts q))

let certain_cq ?budget ?max_extra t q tuple =
  certain_ucq ?budget ?max_extra t (Query.Ucq.of_cq q) tuple

(* ------------------------------------------------------------------ *)
(* Delta maintenance (dynamic engines)                                  *)
(* ------------------------------------------------------------------ *)

(* The kept countermodels' fate in a delta, on its span. *)
let witness_attrs ~suspended ~revived ~dropped =
  if Obs.Trace.enabled () then begin
    Obs.Trace.add_attr "suspended" (Obs.Trace.Int suspended);
    Obs.Trace.add_attr "revived" (Obs.Trace.Int revived);
    Obs.Trace.add_attr "dropped" (Obs.Trace.Int dropped)
  end

(* Inserting changes D upward: a known inconsistency and every proof
   survive; a live countermodel lacking a new fact is suspended, and a
   suspended one lacking one is dropped (DESIGN.md §5, "Witness
   reuse"). Once grounded, the grounding quantifies over dom(D), so a
   fact over any other element needs a new engine. Facts of relations
   the grounding has not admitted only join the instance (admission
   picks them up). *)
let insert_facts t facts =
  Obs.Trace.with_span
    ~attrs:[ ("facts", Obs.Trace.Int (List.length facts)) ]
    "engine.delta.insert"
    (fun () ->
      if not t.dynamic then `Needs_rebuild
      else
        let fresh =
          List.sort_uniq Structure.Instance.compare_fact
            (List.filter
               (fun f -> not (Structure.Instance.mem f t.instance))
               facts)
        in
        let dom = Structure.Instance.domain t.instance in
        match t.grounding with
        | Some _
          when List.exists
                 (fun (f : Structure.Instance.fact) ->
                   List.exists (fun e -> not (Structure.Element.Set.mem e dom)) f.args)
                 fresh ->
            `Needs_rebuild
        | g ->
            Option.iter
              (fun g ->
                List.iter (fun f -> if grounded g.rels f then add_fact t g f) fresh)
              g;
            t.instance <-
              List.fold_left
                (fun i f -> Structure.Instance.add_fact f i)
                t.instance fresh;
            if fresh <> [] then t.generation <- t.generation + 1;
            List.iter (fun f -> Hashtbl.replace t.arrived f t.generation) fresh;
            let suspended = ref 0 and dropped = ref 0 in
            t.witnesses <-
              List.filter
                (fun w ->
                  match lacking w fresh with
                  | 0 -> true
                  | n when w.missing = 0 ->
                      w.missing <- n;
                      incr suspended;
                      true
                  | _ ->
                      incr dropped;
                      false)
                t.witnesses;
            witness_attrs ~suspended:!suspended ~revived:0 ~dropped:!dropped;
            `Delta)

(* Retraction changes D downward: a suspended countermodel that lacked
   only retracted facts is live again, and one found while a retracted
   fact was in D is dropped (DESIGN.md §5, "Witness reuse"). A known
   inconsistency does not survive, nor do the proofs that cite a
   retracted fact (they lapse at lookup). A retraction that vacates a
   domain element is reported as [`Needs_rebuild] once grounded: the
   grounding quantifies over the old domain, and answering over a
   larger domain than dom(D) would not match an engine built on the
   shrunk instance. *)
let retract_facts t facts =
  Obs.Trace.with_span
    ~attrs:[ ("facts", Obs.Trace.Int (List.length facts)) ]
    "engine.delta.retract"
    (fun () ->
      if not t.dynamic then `Needs_rebuild
      else
        let present =
          List.sort_uniq Structure.Instance.compare_fact
            (List.filter (fun f -> Structure.Instance.mem f t.instance) facts)
        in
        let shrunk =
          List.fold_left
            (fun i f -> Structure.Instance.remove_fact f i)
            t.instance present
        in
        if
          Option.is_some t.grounding
          && not
               (Structure.Element.Set.equal
                  (Structure.Instance.domain shrunk)
                  (Structure.Instance.domain t.instance))
        then `Needs_rebuild
        else begin
          let revived = ref 0 and dropped = ref 0 in
          if present <> [] then begin
            t.instance <- shrunk;
            t.inconsistent_upto <- -1;
            Option.iter
              (fun g ->
                List.iter
                  (fun f ->
                    if grounded g.rels f then
                      Hashtbl.remove g.known (Ground.fact_var g.ground f))
                  present;
                g.fact_assumptions <-
                  Hashtbl.fold (fun v () acc -> v :: acc) g.known [])
              t.grounding;
            (* every countermodel found since the oldest retracted fact
               arrived contains it *)
            let oldest =
              List.fold_left
                (fun o f ->
                  min o (Option.value ~default:0 (Hashtbl.find_opt t.arrived f)))
                max_int present
            in
            List.iter (Hashtbl.remove t.arrived) present;
            t.witnesses <-
              List.filter
                (fun w ->
                  if w.born >= oldest then begin
                    incr dropped;
                    false
                  end
                  else begin
                    if w.missing > 0 then begin
                      w.missing <- w.missing - lacking w present;
                      if w.missing = 0 then incr revived
                    end;
                    true
                  end)
                t.witnesses
          end;
          witness_attrs ~suspended:0 ~revived:!revived ~dropped:!dropped;
          `Delta
        end)

let countermodels t =
  List.map (fun w -> (w.model, w.nulls, w.missing = 0)) t.witnesses
