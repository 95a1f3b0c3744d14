module SMap = Logic.Names.SMap

(* The incremental certain-answer engine: ground (O, D, extra-nulls)
   ONCE into a persistent CDCL solver, then answer per-tuple certainty
   queries by solving under assumption literals (the negated reified
   query instantiation) instead of rebuilding clauses. Learned clauses
   accumulate across calls, so a batch of n² tuple checks over the same
   (O, D) pays for one grounding and shares all derived lemmas.

   Query reifications are Tseitin *equivalences* (Ground.reify), i.e.
   definitional extensions: adding them never changes satisfiability of
   the base problem, which keeps the memoized consistency verdict and
   all learned clauses sound as more queries arrive.

   Budgets: every operation accepts a [?budget] and installs it on the
   session's grounder and solver for the duration of the call. A trip
   raises [Budget.Exhausted] but never corrupts the session:
   cancellation points sit where the solver's invariants hold, and a
   partially-emitted query reification is an unreferenced definitional
   fragment that later solves may freely satisfy. The session answers
   subsequent (unbudgeted) queries exactly like a fresh engine — the
   test suite proves this by fault injection. *)

type t = {
  mutable instance : Structure.Instance.t;
  (* Dynamic engines carry D's facts as persistent solver assumptions
     (the fact variables themselves — dense ranks in per-relation
     blocks) instead of unit clauses: insertion adds an assumption over
     the existing block, retraction drops one, and neither rebuilds the
     solver. Learned clauses stay sound because assumptions never
     participate in them ("learned clauses persist; assumptions do
     not"). Static engines keep the cheaper unit-clause encoding. *)
  dynamic : bool;
  assumed : (Structure.Instance.fact, int) Hashtbl.t;
  mutable fact_assumptions : int list;
  ground : Ground.t;
  solver : Dpll.t;
  mutable synced_vars : int;  (* variables already sorted into facts/auxiliaries *)
  reified : (Logic.Formula.t * (string * Structure.Element.t) list, int) Hashtbl.t;
  (* per-session caches for the per-tuple hot path: the formula of each
     disjunct (physical keys — sessions see a handful of CQs, each
     shared across every candidate tuple) and the formulas whose
     signature is already registered, so only the first tuple of a
     query pays [Cq.to_formula] and [Signature.of_formula] *)
  mutable cq_formulas : (Query.Cq.t * Logic.Formula.t) list;
  mutable signed : Logic.Formula.t list;
  stats : Stats.t;
  mutable budget : Budget.t;  (* installed per call; unlimited at rest *)
  mutable consistent : bool option;  (* memoized no-assumption verdict *)
  (* the most recent countermodel, kept as a candidate witness: a
     model of O and D over the session domain refutes every tuple whose
     query it falsifies, so most non-answers are settled by direct
     evaluation instead of a solver call. Sound for the whole session
     lifetime — later additions are definitional extensions (query
     reifications) and implied (learned) clauses, neither of which
     constrains the fact variables further. *)
  mutable witness : Structure.Instance.t option;
}

let instance t = t.instance
let stats t = t.stats

(* Every update lands in the session's own record and in the global one. *)
let tally t f =
  f t.stats;
  f (Stats.global ())

(* Run [f] with [b] installed as the session budget (both here and on
   the grounder), restoring the unlimited budget afterwards — including
   on an [Exhausted] trip, so a cached session is never left with a
   spent budget attached. *)
let with_budget t b f =
  t.budget <- b;
  Ground.set_budget t.ground b;
  Fun.protect
    ~finally:(fun () ->
      t.budget <- Budget.unlimited;
      Ground.set_budget t.ground Budget.unlimited)
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
let sync t =
  Obs.Trace.with_span "engine.sync" @@ fun () ->
  let n = Ground.nvars t.ground in
  let fresh = n - t.synced_vars in
  Dpll.ensure_nvars t.solver n;
  for v = t.synced_vars + 1 to n do
    if not (Ground.is_fact_var t.ground v) then
      Dpll.set_decision_var t.solver v false
  done;
  t.synced_vars <- n;
  let clauses = ref 0 in
  Ground.iter_pending t.ground (fun buf off len ->
      incr clauses;
      Dpll.seed_clause_slice t.solver buf off len;
      Dpll.assert_clause_slice t.solver buf off len);
  if Obs.Trace.enabled () then begin
    Obs.Trace.add_attr "clauses" (Obs.Trace.Int !clauses);
    Obs.Trace.add_attr "vars" (Obs.Trace.Int fresh)
  end

(* The grounding memo counts its traffic in [Stats.global] directly
   (it is process-wide, not per-session); [f]'s delta is mirrored into
   the per-session record here — also on a budget trip, so partial
   groundings stay accounted for. *)
let with_memo_delta st f =
  let g = Stats.global () in
  let h0 = g.Stats.memo_hits and m0 = g.Stats.memo_misses in
  Fun.protect
    ~finally:(fun () ->
      st.Stats.memo_hits <- st.Stats.memo_hits + (g.Stats.memo_hits - h0);
      st.Stats.memo_misses <- st.Stats.memo_misses + (g.Stats.memo_misses - m0))
    f

let create ?(extra_signature = Logic.Signature.empty) ?(budget = Budget.unlimited)
    ?(dynamic = false) ~extra o d =
  let st = Stats.create () in
  Obs.Trace.with_span
    ~attrs:
      [ ("extra", Obs.Trace.Int extra); ("dynamic", Obs.Trace.Bool dynamic) ]
    "engine.ground"
    (fun () ->
      let t0 = Obs.Clock.now () in
      let g =
        with_memo_delta st (fun () ->
            Problem.build ~budget ~extra_signature ~assert_facts:(not dynamic)
              ~extra o d)
      in
      let assumed = Hashtbl.create (if dynamic then 64 else 1) in
      let fact_assumptions =
        if not dynamic then []
        else
          Structure.Instance.FactSet.fold
            (fun f acc ->
              let v = Ground.fact_var g f in
              Hashtbl.replace assumed f v;
              v :: acc)
            (Structure.Instance.fact_set d)
            []
      in
      let t =
        {
          instance = d;
          dynamic;
          assumed;
          fact_assumptions;
          ground = g;
          solver = Dpll.make ~nvars:(Ground.nvars g);
          synced_vars = 0;
          reified = Hashtbl.create 64;
          cq_formulas = [];
          signed = [];
          stats = st;
          budget;
          consistent = None;
          witness = None;
        }
      in
      Fun.protect
        ~finally:(fun () ->
          t.budget <- Budget.unlimited;
          Ground.set_budget g Budget.unlimited)
        (fun () -> sync t);
      let dt = Obs.Clock.now () -. t0 in
      tally t (fun s ->
          s.Stats.groundings <- s.Stats.groundings + 1;
          s.Stats.ground_seconds <- s.Stats.ground_seconds +. dt);
      if Obs.Trace.enabled () then
        Obs.Trace.add_attr "vars" (Obs.Trace.Int (Ground.nvars g));
      t)

(* One solver invocation under the installed budget, with counters and
   wall time credited (also on a budget trip, via protect). *)
let instrumented t n_assumptions f =
  Obs.Trace.with_span
    ~attrs:[ ("assumptions", Obs.Trace.Int n_assumptions) ]
    "engine.solve"
    (fun () ->
      let d0, p0, c0 = Dpll.counters t.solver in
      let t0 = Obs.Clock.now () in
      Fun.protect
        ~finally:(fun () ->
          let dt = Obs.Clock.now () -. t0 in
          let d1, p1, c1 = Dpll.counters t.solver in
          tally t (fun s ->
              s.Stats.solves <- s.Stats.solves + 1;
              s.Stats.decisions <- s.Stats.decisions + (d1 - d0);
              s.Stats.propagations <- s.Stats.propagations + (p1 - p0);
              s.Stats.conflicts <- s.Stats.conflicts + (c1 - c0);
              s.Stats.solve_seconds <- s.Stats.solve_seconds +. dt);
          if Obs.Trace.enabled () then begin
            Obs.Trace.add_attr "decisions" (Obs.Trace.Int (d1 - d0));
            Obs.Trace.add_attr "conflicts" (Obs.Trace.Int (c1 - c0))
          end)
        f)

(* Dynamic engines prepend the fact assumptions to every solve. *)
let all_assumptions t assumptions =
  if t.fact_assumptions == [] then assumptions
  else List.rev_append t.fact_assumptions assumptions

let run_solver t assumptions =
  let assumptions = all_assumptions t assumptions in
  instrumented t (List.length assumptions) (fun () ->
      Dpll.solve_assuming ~budget:t.budget t.solver assumptions)

(* Same, but only the verdict: no model array is built. *)
let run_solver_sat t assumptions =
  let assumptions = all_assumptions t assumptions in
  instrumented t (List.length assumptions) (fun () ->
      Dpll.sat_assuming ~budget:t.budget t.solver assumptions)

(* The literal equivalent to [f] under [env], memoized per session. New
   relations are admitted on demand (their facts are unconstrained by O
   and D, which is exactly their semantics). The memo entry is written
   only after the reification is fully emitted, so a budget trip
   mid-reification leaves no dangling entry — the next call redoes the
   (idempotent) registration and emits a fresh, complete reification. *)
let reified_lit ?(env = SMap.empty) t f =
  let key = (f, SMap.bindings env) in
  match Hashtbl.find_opt t.reified key with
  | Some l -> l
  | None ->
      if not (List.memq f t.signed) then begin
        Ground.ensure_signature t.ground (Logic.Signature.of_formula f);
        t.signed <- f :: t.signed
      end;
      let l = with_memo_delta t.stats (fun () -> Ground.reify ~env t.ground f) in
      sync t;
      Hashtbl.replace t.reified key l;
      l

let formula_of_cq t cq =
  match List.find_opt (fun (c, _) -> c == cq) t.cq_formulas with
  | Some (_, f) -> f
  | None ->
      let f = Query.Cq.to_formula cq in
      t.cq_formulas <- (cq, f) :: t.cq_formulas;
      f

let is_consistent ?(budget = Budget.unlimited) t =
  match t.consistent with
  | Some c -> c
  | None ->
      with_budget t budget (fun () ->
          let c = run_solver_sat t [] in
          t.consistent <- Some c;
          c)

let answer_env (q : Query.Cq.t) tuple =
  List.fold_left2
    (fun env v e -> SMap.add v e env)
    SMap.empty q.Query.Cq.answer tuple

(* A model of O and D over this session's domain in which each pointed
   CQ holds exactly when flagged: its reified instantiation is assumed
   positively when wanted and negatively when not. Any model of O and D
   over the session domain is a valid witness, so the result refreshes
   the cached one. *)
let signed_model ?(budget = Budget.unlimited) t flagged =
  with_budget t budget (fun () ->
      let assumptions =
        List.map
          (fun (cq, tuple, wanted) ->
            let l = reified_lit ~env:(answer_env cq tuple) t (formula_of_cq t cq) in
            if wanted then l else -l)
          flagged
      in
      match run_solver t assumptions with
      | Dpll.Unsat -> None
      | Dpll.Sat m ->
          let w = Ground.extract_model t.ground m in
          t.witness <- Some w;
          Some w)

(* [w] already demonstrates O,D ⊭ ⋁ qᵢ(āᵢ): every disjunct fails on it. *)
let witness_refutes w pointed =
  List.for_all (fun (cq, tuple) -> not (Query.Cq.holds w cq tuple)) pointed

(* The certainty hot path: try the cached witness first — direct CQ
   evaluation, no solver call — and fall back to a countermodel search
   (which refreshes the witness) only when the witness satisfies some
   disjunct. Over a batch of n² candidate tuples one countermodel
   typically settles nearly all non-answers. *)
let certain_pointed ?budget t pointed =
  match t.witness with
  | Some w when witness_refutes w pointed -> false
  | _ ->
      (* a countermodel: a model where every pointed disjunct fails *)
      Option.is_none
        (signed_model ?budget t
           (List.map (fun (cq, tuple) -> (cq, tuple, false)) pointed))

let pointed_of name q tuple =
  if List.length tuple <> Query.Ucq.arity q then
    invalid_arg (Fmt.str "Engine.%s: tuple arity mismatch" name);
  List.map (fun cq -> (cq, tuple)) (Query.Ucq.disjuncts q)

(* Certainty at THIS session's domain bound: no countermodel with
   exactly [extra t] fresh nulls. *)
let certain_ucq ?budget t q tuple =
  certain_pointed ?budget t (pointed_of "certain_ucq" q tuple)

let certain_cq ?budget t q tuple = certain_ucq ?budget t (Query.Ucq.of_cq q) tuple

let certain_disjunction ?budget t pointed = certain_pointed ?budget t pointed

(* ------------------------------------------------------------------ *)
(* Delta maintenance (dynamic engines)                                  *)
(* ------------------------------------------------------------------ *)

let is_dynamic t = t.dynamic

let delta_metric ?(by = 1) name =
  Obs.Metrics.incr ~by (Obs.Metrics.global ()) name

(* [insert_facts t facts] admits new facts into a dynamic session as
   additional assumptions. New relations are registered on demand
   (their variable blocks append after the existing ones); a fact over
   an element outside the grounded domain cannot be represented — the
   quantifier expansions would have to be redone — so the caller is told
   to rebuild. Inserting changes D upward: a cached [Some false]
   consistency verdict survives, [Some true] does not; the cached
   witness survives iff it already contains the new facts. *)
let insert_facts ?(budget = Budget.unlimited) t facts =
  Obs.Trace.with_span
    ~attrs:[ ("facts", Obs.Trace.Int (List.length facts)) ]
    "engine.delta.insert"
    (fun () ->
      if not t.dynamic then begin
        delta_metric "engine.delta.rebuilds";
        `Needs_rebuild
      end
      else
        with_budget t budget @@ fun () ->
        let fresh =
          List.sort_uniq Structure.Instance.compare_fact
            (List.filter
               (fun f -> not (Structure.Instance.mem f t.instance))
               facts)
        in
        match
          List.map
            (fun (f : Structure.Instance.fact) ->
              match Ground.fact_var t.ground f with
              | v -> (f, v)
              | exception Invalid_argument _ ->
                  Ground.ensure_signature t.ground
                    (Logic.Signature.add f.rel (List.length f.args)
                       Logic.Signature.empty);
                  (f, Ground.fact_var t.ground f))
            fresh
        with
        | exception Invalid_argument _ ->
            delta_metric "engine.delta.rebuilds";
            `Needs_rebuild
        | vars ->
            sync t;
            List.iter
              (fun (f, v) ->
                Hashtbl.replace t.assumed f v;
                t.fact_assumptions <- v :: t.fact_assumptions;
                t.instance <- Structure.Instance.add_fact f t.instance)
              vars;
            (match t.consistent with
            | Some true -> t.consistent <- None
            | _ -> ());
            (match t.witness with
            | Some w
              when List.for_all
                     (fun (f, _) -> Structure.Instance.mem f w)
                     vars ->
                ()
            | Some _ -> t.witness <- None
            | None -> ());
            delta_metric ~by:(List.length vars) "engine.delta.inserts";
            `Delta)

(* [retract_facts t facts] drops facts from a dynamic session by
   forgetting their assumptions. Retraction changes D downward: a cached
   [Some true] verdict and the cached witness (a model containing the
   old D, hence the new one) both survive; [Some false] does not. A
   retraction that vacates a domain element is reported as
   [`Needs_rebuild]: the grounding quantifies over the old domain, and
   answering over a larger domain than dom(D) would not match a session
   reopened on the shrunk instance. *)
let retract_facts ?(budget = Budget.unlimited) t facts =
  Obs.Trace.with_span
    ~attrs:[ ("facts", Obs.Trace.Int (List.length facts)) ]
    "engine.delta.retract"
    (fun () ->
      if not t.dynamic then begin
        delta_metric "engine.delta.rebuilds";
        `Needs_rebuild
      end
      else
        with_budget t budget @@ fun () ->
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
          not
            (Structure.Element.Set.equal
               (Structure.Instance.domain shrunk)
               (Structure.Instance.domain t.instance))
        then begin
          delta_metric "engine.delta.rebuilds";
          `Needs_rebuild
        end
        else begin
          List.iter (fun f -> Hashtbl.remove t.assumed f) present;
          if present <> [] then begin
            t.instance <- shrunk;
            t.fact_assumptions <-
              Hashtbl.fold (fun _ v acc -> v :: acc) t.assumed [];
            match t.consistent with
            | Some false -> t.consistent <- None
            | _ -> ()
          end;
          delta_metric ~by:(List.length present) "engine.delta.retracts";
          `Delta
        end)

(* ------------------------------------------------------------------ *)
(* The session cache                                                    *)
(* ------------------------------------------------------------------ *)

(* Sessions are keyed by (ontology digest, instance digest, extra
   bound) and evicted least-recently-used. Signatures are NOT part of
   the key: sessions admit new query relations on demand. A session is
   cached only after its grounding completed, so a budget trip during
   [create] never pollutes the cache with a half-built engine. *)

type key = string * string * int

let digest_ontology o =
  Digest.string
    (Marshal.to_string
       (Logic.Ontology.sentences o, Logic.Ontology.functional o)
       [])

let digest_instance d =
  Digest.string
    (Marshal.to_string
       (Structure.Instance.facts d, Structure.Instance.domain_list d)
       [])

type cache_entry = { engine : t; mutable stamp : int  (* LRU clock *) }

(* The registry is DOMAIN-LOCAL: engines hold single-writer solver and
   grounder state, so handing one engine to two domains is never sound.
   Each worker domain grows its own LRU of sessions for the items it
   happens to process (shared-nothing, like the grounding memo);
   [clear_cache] and [set_cache_capacity] act on the calling domain
   only. See DESIGN.md §5, "Domain-locality invariants". *)
type registry = {
  sessions : (key, cache_entry) Hashtbl.t;
  mutable clock : int;
  mutable capacity : int;
}

let registry_key =
  Domain.DLS.new_key (fun () ->
      { sessions = Hashtbl.create 32; clock = 0; capacity = 16 })

let registry () = Domain.DLS.get registry_key

(* Evict least-recently-stamped sessions down to capacity (linear scan:
   the cache is small and eviction rare). *)
let evict_to r cap =
  while Hashtbl.length r.sessions > cap do
    let victim =
      Hashtbl.fold
        (fun k (e : cache_entry) acc ->
          match acc with
          | Some (_, stamp) when stamp <= e.stamp -> acc
          | _ -> Some (k, e.stamp))
        r.sessions None
    in
    match victim with
    | Some (k, _) -> Hashtbl.remove r.sessions k
    | None -> ()
  done

let set_cache_capacity n =
  let r = registry () in
  r.capacity <- max n 0;
  evict_to r r.capacity

let clear_cache () = Hashtbl.reset (registry ()).sessions
let cached_sessions () = Hashtbl.length (registry ()).sessions

(* The baseline is the engine's record before this lookup: a cached
   engine's lifetime counters belong to earlier borrowers, a fresh
   engine's all belong to this one. *)
let acquire ?extra_signature ?budget ~extra o d =
  let r = registry () in
  let key = (digest_ontology o, digest_instance d, extra) in
  r.clock <- r.clock + 1;
  match Hashtbl.find_opt r.sessions key with
  | Some e ->
      e.stamp <- r.clock;
      let t = e.engine in
      let baseline = Stats.copy t.stats in
      tally t (fun s -> s.Stats.cache_hits <- s.Stats.cache_hits + 1);
      Obs.Trace.event ~attrs:[ ("extra", Obs.Trace.Int extra) ] "engine.cache_hit";
      (t, baseline)
  | None ->
      Obs.Trace.event ~attrs:[ ("extra", Obs.Trace.Int extra) ] "engine.cache_miss";
      let t = create ?extra_signature ?budget ~extra o d in
      tally t (fun s -> s.Stats.cache_misses <- s.Stats.cache_misses + 1);
      if r.capacity > 0 then begin
        Hashtbl.replace r.sessions key { engine = t; stamp = r.clock };
        evict_to r r.capacity
      end;
      (t, Stats.create ())

let session ?extra_signature ?budget ~extra o d =
  fst (acquire ?extra_signature ?budget ~extra o d)

(* ------------------------------------------------------------------ *)
(* Iterative deepening over cached sessions                             *)
(* ------------------------------------------------------------------ *)

let is_consistent_upto ?budget ?max_extra o d =
  Option.is_some
    (Problem.deepen ?max_extra (fun extra ->
         if is_consistent ?budget (session ?budget ~extra o d) then Some ()
         else None))

(* Certain iff no bound refutes; a refuting bound ends the walk. *)
let certain_disjunction_upto ?budget ?max_extra o d pointed =
  Option.is_none
    (Problem.deepen ?max_extra (fun extra ->
         if certain_disjunction ?budget (session ?budget ~extra o d) pointed
         then None
         else Some ()))

let certain_ucq_upto ?budget ?max_extra o d q tuple =
  certain_disjunction_upto ?budget ?max_extra o d
    (pointed_of "certain_ucq_upto" q tuple)

let certain_cq_upto ?budget ?max_extra o d q tuple =
  certain_ucq_upto ?budget ?max_extra o d (Query.Ucq.of_cq q) tuple
