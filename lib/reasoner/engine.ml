module SMap = Logic.Names.SMap

(* The incremental certain-answer engine of one (O, D). A certain
   answer is decided by looking for a countermodel over dom(D) plus 0,
   1, ..., max_extra fresh nulls; the engine owns one grounding per such
   bound, builds each on first use, and walks the bounds itself with
   Problem.deepen. A bound grounds (O, D, k nulls) ONCE into a
   persistent CDCL solver, then answers per-tuple certainty queries by
   solving under assumption literals (the negated reified query
   instantiation) instead of rebuilding clauses. Learned clauses
   accumulate across calls, so a batch of n² tuple checks over the same
   (O, D) pays for one grounding per bound and shares all derived
   lemmas.

   Query reifications are Tseitin *equivalences* (Ground.reify), i.e.
   definitional extensions: adding them never changes satisfiability of
   the base problem, which keeps the memoized consistency verdict and
   all learned clauses sound as more queries arrive. The same growth
   argument keeps each recorded proof (the facts of a refutation's
   failed-assumption core) valid while its facts stay assumed.

   Budgets: every operation accepts a [?budget] and installs it on the
   bound's grounder and solver for the duration of the call. A trip
   raises [Budget.Exhausted] but never corrupts the engine: a bound is
   stored only once its grounding completed, cancellation points sit
   where the solver's invariants hold, and a partially-emitted query
   reification is an unreferenced definitional fragment that later
   solves may freely satisfy. The engine answers subsequent
   (unbudgeted) queries exactly like a fresh engine — the test suite
   proves this by fault injection. *)

(* One grounding of (O, D) with exactly [k] fresh nulls. *)
type bound = {
  (* Dynamic engines carry D's facts as persistent solver assumptions
     (the fact variables themselves — dense ranks in per-relation
     blocks) instead of unit clauses: insertion adds an assumption over
     the existing block, retraction drops one, and neither rebuilds the
     solver. Learned clauses stay sound because assumptions never
     participate in them ("learned clauses persist; assumptions do
     not"). Static engines keep the cheaper unit-clause encoding.
     [assumed] holds the fact variables assumed now. *)
  assumed : (int, unit) Hashtbl.t;
  mutable fact_assumptions : int list;
  ground : Ground.t;
  solver : Dpll.t;
  mutable synced_vars : int;  (* variables already sorted into facts/auxiliaries *)
  reified : (Logic.Formula.t * (string * Structure.Element.t) list, int) Hashtbl.t;
  (* per-bound caches for the per-tuple hot path: the formula of each
     disjunct (physical keys — engines see a handful of CQs, each
     shared across every candidate tuple) and the formulas whose
     signature is already registered, so only the first tuple of a
     query pays [Cq.to_formula] and [Signature.of_formula] *)
  mutable cq_formulas : (Query.Cq.t * Logic.Formula.t) list;
  mutable signed : Logic.Formula.t list;
  stats : Stats.t;  (* the engine's record, shared by its bounds *)
  mutable budget : Budget.t;  (* installed per call; unlimited at rest *)
  mutable consistent : bool option;  (* memoized no-assumption verdict *)
  (* the most recent countermodel, kept as a candidate witness: a
     model of O and D over the bound's domain refutes every tuple whose
     query it falsifies, so most non-answers are settled by direct
     evaluation instead of a solver call. Sound for the bound's whole
     lifetime — later additions are definitional extensions (query
     reifications) and implied (learned) clauses, neither of which
     constrains the fact variables further. *)
  mutable witness : Structure.Instance.t option;
  (* the proof memo: each refuted pointed disjunction with the fact
     variables of its failed-assumption core (Dpll.core). The clause
     set only grows — reifications are definitional, learned clauses
     implied — so the core refutes the disjunction for as long as
     those facts are assumed: inserts keep every proof, a retract
     voids only the proofs that cite it. Static engines assert facts
     as unit clauses, so their cores cite no fact and never lapse. One
     table per list of disjuncts (physical keys, as [cq_formulas]),
     keyed by the tuples so that the hash covers them. *)
  mutable proofs :
    (Query.Cq.t list * (Structure.Element.t list list, int list) Hashtbl.t)
    list;
}

type t = {
  ontology : Logic.Ontology.t;
  extra_signature : Logic.Signature.t;
  dynamic : bool;
  mutable instance : Structure.Instance.t;
  (* [bounds.(k)] is the grounding with k fresh nulls, once built *)
  mutable bounds : bound option array;
  stats : Stats.t;
}

let create ?(extra_signature = Logic.Signature.empty) ?(dynamic = false) o d =
  {
    ontology = o;
    extra_signature;
    dynamic;
    instance = d;
    bounds = [||];
    stats = Stats.create ();
  }

let ontology t = t.ontology
let instance t = t.instance
let is_dynamic t = t.dynamic
let grounded t = List.filter_map Fun.id (Array.to_list t.bounds)

(* Each grounder counts its own memo traffic; the bounds' counts are
   folded into the engine's record whenever the record is read. *)
let stats t =
  let hits, misses =
    List.fold_left
      (fun (h, m) b ->
        let h', m' = Ground.memo_counts b.ground in
        (h + h', m + m'))
      (0, 0) (grounded t)
  in
  t.stats.Stats.memo_hits <- hits;
  t.stats.Stats.memo_misses <- misses;
  t.stats

(* Run [f] with [budget] installed on the bound (both here and on the
   grounder), restoring the unlimited budget afterwards — including on
   an [Exhausted] trip, so a bound is never left with a spent budget
   attached. *)
let with_budget b budget f =
  b.budget <- budget;
  Ground.set_budget b.ground budget;
  Fun.protect
    ~finally:(fun () ->
      b.budget <- Budget.unlimited;
      Ground.set_budget b.ground Budget.unlimited)
    f

(* Push clauses produced by the grounder since the last sync into the
   persistent solver, straight from the clause arena. New Tseitin
   auxiliaries lose their decision flag: propagation fixes them from the
   facts, so the solver branches on facts alone, false first, and a
   countermodel holds only the facts O and D force — a near-minimal
   witness that refutes every non-answer at once on Horn inputs. The
   [engine.sync] span carries the clauses pushed and the variables
   admitted, so clause loading is visible apart from grounding (at
   creation) and settlement (per candidate). *)
let sync b =
  Obs.Trace.with_span "engine.sync" @@ fun () ->
  let n = Ground.nvars b.ground in
  let fresh = n - b.synced_vars in
  Dpll.ensure_nvars b.solver n;
  for v = b.synced_vars + 1 to n do
    if not (Ground.is_fact_var b.ground v) then
      Dpll.set_decision_var b.solver v false
  done;
  b.synced_vars <- n;
  let clauses = ref 0 in
  Ground.iter_pending b.ground (fun buf off len ->
      incr clauses;
      Dpll.seed_clause_slice b.solver buf off len;
      Dpll.assert_clause_slice b.solver buf off len);
  if Obs.Trace.enabled () then begin
    Obs.Trace.add_attr "clauses" (Obs.Trace.Int !clauses);
    Obs.Trace.add_attr "vars" (Obs.Trace.Int fresh)
  end

(* Ground (O, D) with exactly [extra] fresh nulls. A trip raises out of
   here before the caller stores the bound, so the next call grounds it
   again from scratch. *)
let ground_bound ~budget t extra =
  Obs.Trace.with_span
    ~attrs:
      [ ("extra", Obs.Trace.Int extra); ("dynamic", Obs.Trace.Bool t.dynamic) ]
    "engine.ground"
    (fun () ->
      let t0 = Obs.Clock.now () in
      let g =
        Problem.build ~budget ~extra_signature:t.extra_signature
          ~assert_facts:(not t.dynamic) ~extra t.ontology t.instance
      in
      let assumed = Hashtbl.create (if t.dynamic then 64 else 1) in
      let fact_assumptions =
        if not t.dynamic then []
        else
          Structure.Instance.FactSet.fold
            (fun f acc ->
              let v = Ground.fact_var g f in
              Hashtbl.replace assumed v ();
              v :: acc)
            (Structure.Instance.fact_set t.instance)
            []
      in
      let b =
        {
          assumed;
          fact_assumptions;
          ground = g;
          solver = Dpll.make ~nvars:(Ground.nvars g);
          synced_vars = 0;
          reified = Hashtbl.create 64;
          cq_formulas = [];
          signed = [];
          stats = t.stats;
          budget;
          consistent = None;
          witness = None;
          proofs = [];
        }
      in
      Fun.protect
        ~finally:(fun () ->
          b.budget <- Budget.unlimited;
          Ground.set_budget g Budget.unlimited)
        (fun () -> sync b);
      let dt = Obs.Clock.now () -. t0 in
      t.stats.Stats.groundings <- t.stats.Stats.groundings + 1;
      t.stats.Stats.ground_seconds <- t.stats.Stats.ground_seconds +. dt;
      if Obs.Trace.enabled () then
        Obs.Trace.add_attr "vars" (Obs.Trace.Int (Ground.nvars g));
      b)

(* The bound with [k] fresh nulls, grounded on first use under
   [budget]. *)
let bound ~budget t k =
  let n = Array.length t.bounds in
  if k >= n then t.bounds <- Array.append t.bounds (Array.make (k + 1 - n) None);
  match t.bounds.(k) with
  | Some b -> b
  | None ->
      let b = ground_bound ~budget t k in
      t.bounds.(k) <- Some b;
      b

(* One solver invocation under the installed budget, with counters and
   wall time credited (also on a budget trip, via protect). *)
let instrumented b n_assumptions f =
  Obs.Trace.with_span
    ~attrs:[ ("assumptions", Obs.Trace.Int n_assumptions) ]
    "engine.solve"
    (fun () ->
      let d0, p0, c0 = Dpll.counters b.solver in
      let t0 = Obs.Clock.now () in
      Fun.protect
        ~finally:(fun () ->
          let dt = Obs.Clock.now () -. t0 in
          let d1, p1, c1 = Dpll.counters b.solver in
          let s = b.stats in
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
let all_assumptions b assumptions =
  if b.fact_assumptions == [] then assumptions
  else List.rev_append b.fact_assumptions assumptions

let run_solver b assumptions =
  let assumptions = all_assumptions b assumptions in
  instrumented b (List.length assumptions) (fun () ->
      Dpll.solve_assuming ~budget:b.budget b.solver assumptions)

(* Same, but only the verdict: no model array is built. *)
let run_solver_sat b assumptions =
  let assumptions = all_assumptions b assumptions in
  instrumented b (List.length assumptions) (fun () ->
      Dpll.sat_assuming ~budget:b.budget b.solver assumptions)

(* The literal equivalent to [f] under [env], memoized per bound. New
   relations are admitted on demand (their facts are unconstrained by O
   and D, which is exactly their semantics). The memo entry is written
   only after the reification is fully emitted, so a budget trip
   mid-reification leaves no dangling entry — the next call redoes the
   (idempotent) registration and emits a fresh, complete reification. *)
let reified_lit ?(env = SMap.empty) b f =
  let key = (f, SMap.bindings env) in
  match Hashtbl.find_opt b.reified key with
  | Some l -> l
  | None ->
      if not (List.memq f b.signed) then begin
        Ground.ensure_signature b.ground (Logic.Signature.of_formula f);
        b.signed <- f :: b.signed
      end;
      let l = Ground.reify ~env b.ground f in
      sync b;
      Hashtbl.replace b.reified key l;
      l

let formula_of_cq b cq =
  match List.find_opt (fun (c, _) -> c == cq) b.cq_formulas with
  | Some (_, f) -> f
  | None ->
      let f = Query.Cq.to_formula cq in
      b.cq_formulas <- (cq, f) :: b.cq_formulas;
      f

(* Memoized: solved once per bound (only a completed verdict is
   memoized). *)
let consistent_at budget b =
  match b.consistent with
  | Some c -> c
  | None ->
      with_budget b budget (fun () ->
          let c = run_solver_sat b [] in
          b.consistent <- Some c;
          c)

let answer_env (q : Query.Cq.t) tuple =
  List.fold_left2
    (fun env v e -> SMap.add v e env)
    SMap.empty q.Query.Cq.answer tuple

(* A model of O and D over this bound's domain in which each pointed CQ
   holds exactly when flagged: its reified instantiation is assumed
   positively when wanted and negatively when not. Any model of O and D
   over the bound's domain is a valid witness, so the result refreshes
   the cached one. *)
let signed_at budget b flagged =
  with_budget b budget (fun () ->
      let assumptions =
        List.map
          (fun (cq, tuple, wanted) ->
            let l = reified_lit ~env:(answer_env cq tuple) b (formula_of_cq b cq) in
            if wanted then l else -l)
          flagged
      in
      match run_solver b assumptions with
      | Dpll.Unsat -> None
      | Dpll.Sat m ->
          let w = Ground.extract_model b.ground m in
          b.witness <- Some w;
          Some w)

(* [w] already demonstrates O,D ⊭ ⋁ qᵢ(āᵢ): every disjunct fails on it. *)
let witness_refutes w pointed =
  List.for_all (fun (cq, tuple) -> not (Query.Cq.holds w cq tuple)) pointed

let proof_table b pointed =
  let cqs = List.map fst pointed in
  match List.find_opt (fun (c, _) -> List.equal ( == ) c cqs) b.proofs with
  | Some (_, tbl) -> tbl
  | None ->
      let tbl = Hashtbl.create 64 in
      b.proofs <- (cqs, tbl) :: b.proofs;
      tbl

(* Certainty at one bound. The hot path needs no solver call: a proof
   whose facts are all still assumed settles an answer, and the cached
   witness — direct CQ evaluation — settles most non-answers. Only when
   neither does is a countermodel searched for; a Sat refreshes the
   witness, an Unsat records its proof. Over a batch of n² candidate
   tuples one countermodel typically settles nearly all non-answers. *)
let certain_at budget b pointed =
  let proofs = proof_table b pointed and tuples = List.map snd pointed in
  match Hashtbl.find_opt proofs tuples with
  | Some facts when List.for_all (Hashtbl.mem b.assumed) facts -> true
  | _ -> (
      match b.witness with
      | Some w when witness_refutes w pointed -> false
      | _ ->
          (* a countermodel: a model where every pointed disjunct fails *)
          let certain =
            Option.is_none
              (signed_at budget b
                 (List.map (fun (cq, tuple) -> (cq, tuple, false)) pointed))
          in
          if certain then
            Hashtbl.replace proofs tuples
              (List.filter (Hashtbl.mem b.assumed) (Dpll.core b.solver));
          certain)

(* ------------------------------------------------------------------ *)
(* The bound walk                                                       *)
(* ------------------------------------------------------------------ *)

(* Every entry point visits bounds 0..max_extra in order through
   Problem.deepen, so a decisive bound never grounds the deeper ones. *)

let is_consistent ?(budget = Budget.unlimited) ?max_extra t =
  Option.is_some
    (Problem.deepen ?max_extra (fun k ->
         if consistent_at budget (bound ~budget t k) then Some () else None))

let signed_model ?(budget = Budget.unlimited) ?max_extra t flagged =
  Problem.deepen ?max_extra (fun k -> signed_at budget (bound ~budget t k) flagged)

(* Certain iff no bound refutes; a refuting bound ends the walk. *)
let certain_disjunction ?(budget = Budget.unlimited) ?max_extra t pointed =
  Option.is_none
    (Problem.deepen ?max_extra (fun k ->
         if certain_at budget (bound ~budget t k) pointed then None else Some ()))

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

(* The variable of each fact in bound [b], admitting new relations on
   demand (their variable blocks append after the existing ones). A fact
   over an element outside the bound's domain cannot be represented —
   the quantifier expansions would have to be redone — so
   [Ground.fact_var] raises [Invalid_argument]. *)
let fact_vars b facts =
  List.map
    (fun (f : Structure.Instance.fact) ->
      match Ground.fact_var b.ground f with
      | v -> (f, v)
      | exception Invalid_argument _ ->
          Ground.ensure_signature b.ground
            (Logic.Signature.add f.rel (List.length f.args) Logic.Signature.empty);
          (f, Ground.fact_var b.ground f))
    facts

(* Inserting changes D upward: a cached [Some false] consistency verdict
   and every proof survive, [Some true] does not; the cached witness
   survives iff it already contains the new facts. *)
let admit b vars =
  sync b;
  List.iter
    (fun (_, v) ->
      Hashtbl.replace b.assumed v ();
      b.fact_assumptions <- v :: b.fact_assumptions)
    vars;
  (match b.consistent with Some true -> b.consistent <- None | _ -> ());
  match b.witness with
  | Some w
    when List.for_all (fun (f, _) -> Structure.Instance.mem f w) vars ->
      ()
  | Some _ -> b.witness <- None
  | None -> ()

(* Every grounded bound resolves the new facts before any bound admits
   them, so a fact some bound cannot represent leaves the engine as it
   was. Bounds not grounded yet ground later on the grown instance. *)
let insert_facts ?(budget = Budget.unlimited) t facts =
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
        match
          List.map
            (fun b -> (b, with_budget b budget (fun () -> fact_vars b fresh)))
            (grounded t)
        with
        | exception Invalid_argument _ -> `Needs_rebuild
        | resolved ->
            List.iter (fun (b, vars) -> admit b vars) resolved;
            t.instance <-
              List.fold_left
                (fun i f -> Structure.Instance.add_fact f i)
                t.instance fresh;
            `Delta)

(* Retraction changes D downward: a cached [Some true] verdict and the
   cached witness (a model containing the old D, hence the new one) both
   survive; [Some false] does not, nor do the proofs that cite a
   retracted fact (they lapse at lookup). A retraction that vacates a
   domain element is reported as [`Needs_rebuild] once a bound is
   grounded: the grounding quantifies over the old domain, and
   answering over a larger domain than dom(D) would not match an engine
   built on the shrunk instance. *)
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
        let bounds = grounded t in
        if
          bounds <> []
          && not
               (Structure.Element.Set.equal
                  (Structure.Instance.domain shrunk)
                  (Structure.Instance.domain t.instance))
        then `Needs_rebuild
        else begin
          if present <> [] then begin
            t.instance <- shrunk;
            List.iter
              (fun b ->
                List.iter
                  (fun f ->
                    Hashtbl.remove b.assumed (Ground.fact_var b.ground f))
                  present;
                b.fact_assumptions <-
                  Hashtbl.fold (fun v () acc -> v :: acc) b.assumed [];
                match b.consistent with
                | Some false -> b.consistent <- None
                | _ -> ())
              bounds
          end;
          `Delta
        end)
