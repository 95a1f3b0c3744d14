(* The benchmark harness: one Bechamel test per table/figure of the
   paper (see DESIGN.md's per-experiment index), plus the regenerated
   tables printed for EXPERIMENTS.md.

     dune exec bench/main.exe
*)

open Bechamel
open Toolkit
open Bench_support

(* ------------------------------------------------------------------ *)
(* The regenerated tables                                               *)
(* ------------------------------------------------------------------ *)

let section title = Fmt.pr "@.== %s ==@." title

(* The paper tables answer and time through Reasoner.Engine; the
   independent Bounded oracle only checks the verdicts, beside them. *)
let oracle agrees = if agrees then "(agrees)" else "(MISMATCH)"

(* The reasoner work of the smoke tables — their engine sessions,
   corpus reports and incremental sessions — summed, for the
   bench.total.* rows. *)
let total = Reasoner.Stats.create ()

(* Every member of [st]'s Stats.json as the metric [prefix].<key>. *)
let record_stats prefix st =
  match Reasoner.Stats.json st with
  | Obs.Json.Obj members ->
      List.iter
        (function
          | k, Obs.Json.Num v ->
              Obs.Metrics.set (Obs.Metrics.global ()) (prefix ^ "." ^ k) v
          | _ -> ())
        members
  | _ -> ()

let fig1_table () =
  section "Figure 1: the complexity landscape";
  Fmt.pr "%-18s %-14s %-14s@." "fragment" "computed" "paper";
  List.iter
    (fun (name, (ev : Classify.Landscape.evidence), expected) ->
      Fmt.pr "%-18s %-14s %-14s %s@." name
        (Fmt.str "%a" Classify.Landscape.pp_status ev.status)
        (Fmt.str "%a" Classify.Landscape.pp_status expected)
        (if ev.status = expected then "ok" else "MISMATCH"))
    Classify.Landscape.figure1

let bioportal_table () =
  section "Section 1: the BioPortal corpus analysis (synthetic corpus)";
  let corpus = Bioportal.Generate.corpus () in
  let table = Bioportal.Analyze.tabulate (List.map Bioportal.Analyze.analyze corpus) in
  Fmt.pr "%a@." Bioportal.Analyze.pp_table table;
  let pt, pf, pq = Bioportal.Analyze.paper_reference in
  Fmt.pr "paper: %d total, %d in ALCHIF depth <= 2, %d in ALCHIQ depth 1@." pt pf pq

let hand_table () =
  section "Section 1: O1, O2 and their union on the five-fingered hand";
  let hand = hands 1 in
  let pointed =
    List.init 5 (fun f -> (thumb, [ e (Printf.sprintf "h0_f%d" f) ]))
  in
  let cases =
    [ ("O1 (exactly five fingers)", o1); ("O2 (a thumb finger)", o2); ("O1 + O2", o_union) ]
  in
  Fmt.pr "%-28s %-22s %-18s %-16s@." "ontology" "thumb disj. certain" "disjunct certain" "materializable";
  List.iter
    (fun (name, o) ->
      let eng = Reasoner.Engine.create o hand in
      let disj = Reasoner.Engine.certain_disjunction ~max_extra:1 eng pointed in
      let single = Reasoner.Engine.certain_cq ~max_extra:1 eng thumb [ e "h0_f0" ] in
      let mat =
        Material.Materializability.materializable_on ~max_model_extra:1 ~max_extra:1 eng
      in
      let agrees =
        Bool.equal disj (Reasoner.Bounded.certain_disjunction ~max_extra:1 o hand pointed)
        && Bool.equal single
             (Reasoner.Bounded.certain_cq ~max_extra:1 o hand thumb [ e "h0_f0" ])
      in
      Fmt.pr "%-28s %-22b %-18b %-16b %s@." name disj single mat (oracle agrees))
    cases;
  (* scaling: certain-answer cost as hands are added (shape: the union
     pays for countermodel search, the PTIME ontologies stay cheap). Each
     timed check starts from a fresh engine, so it pays its grounding. *)
  Fmt.pr "@.%-8s %-14s %-14s %-14s  (seconds per disjunction check)@." "hands"
    "O1" "O2" "O1+O2";
  List.iter
    (fun n ->
      let d = hands n in
      let pointed =
        List.init 5 (fun f -> (thumb, [ e (Printf.sprintf "h0_f%d" f) ]))
      in
      let run o =
        let verdict, secs =
          time (fun () ->
              Reasoner.Engine.certain_disjunction ~max_extra:1
                (Reasoner.Engine.create o d) pointed)
        in
        (secs, Bool.equal verdict (Reasoner.Bounded.certain_disjunction ~max_extra:1 o d pointed))
      in
      let rows = List.map run [ o1; o2; o_union ] in
      Fmt.pr "%-8d %s %s@." n
        (String.concat " " (List.map (fun (secs, _) -> Fmt.str "%-14.4f" secs) rows))
        (oracle (List.for_all snd rows)))
    [ 1; 2 ]

let example1_table () =
  section "Example 1 / Lemma 3: the limits of the framework";
  (* OMat/PTime is not invariant under disjoint unions *)
  let s = List.hd (Logic.Ontology.sentences o_mat_ptime) in
  let d1 = Structure.Parse.instance_of_string "A(a)" in
  let d2 = Structure.Parse.instance_of_string "B(b)" in
  (match Gf.Invariance.check_pair s d1 d2 with
  | Some _ -> Fmt.pr "OMat/PTime: disjoint-union invariance fails (as in the paper)@."
  | None -> Fmt.pr "OMat/PTime: MISMATCH@.");
  (* OMat/PTime is not materializable *)
  let d = Structure.Parse.instance_of_string "D(c)" in
  Fmt.pr "OMat/PTime materializable on {D(c)}: %b (paper: false)@."
    (Material.Materializability.materializable_on ~max_model_extra:1
       (Reasoner.Engine.create o_mat_ptime d));
  (* OUCQ/CQ: the Boolean UCQ A(x) | B(x) | E(x) is certain on any
     instance (it restates the ontology), while no single disjunct is —
     the UCQ/CQ gap behind Lemma 3 *)
  let qa = Query.Parse.cq_of_string "q <- A(x)" in
  let qb = Query.Parse.cq_of_string "q <- B(x)" in
  let qe = Query.Parse.cq_of_string "q <- E(x)" in
  let d = Structure.Parse.instance_of_string "F(a)" in
  let ucq = Query.Ucq.make [ qa; qb; qe ] in
  (* (Engine verdict, Bounded verdict) *)
  let eng = Reasoner.Engine.create o_ucq_cq d in
  let union =
    ( Reasoner.Engine.certain_ucq ~max_extra:1 eng ucq [],
      Reasoner.Bounded.certain_ucq ~max_extra:1 o_ucq_cq d ucq [] )
  in
  let each =
    List.map
      (fun q ->
        ( Reasoner.Engine.certain_cq ~max_extra:1 eng q [],
          Reasoner.Bounded.certain_cq ~max_extra:1 o_ucq_cq d q [] ))
      [ qa; qb; qe ]
  in
  Fmt.pr "OUCQ/CQ on {F(a)}: A|B|E certain: %b, each disjunct: %s (paper: true, false x3) %s@."
    (fst union)
    (String.concat " " (List.map (fun (v, _) -> string_of_bool v) each))
    (oracle (List.for_all (fun (v, b) -> Bool.equal v b) (union :: each)))

let engine_table () =
  section "Incremental engine: ground once, solve many";
  (* Normalize heap state: the preceding tables leave a grown major heap
     whose collection debt otherwise lands on these sub-millisecond
     timings. *)
  Gc.compact ();
  (* Multi-tuple certain answers of an arity-2 query: the seed path
     regrounds (O, D) for every candidate tuple and bound; the session
     path grounds once per bound and answers tuples by assumption
     solving. The grounding memo is disabled for the table — it would
     accelerate the seed path's deliberate regrounding and blur the
     ground-once-vs-reground comparison this table isolates; the memo's
     own effect shows up in bench.total.ground_seconds instead. *)
  Reasoner.Ground.set_memo_capacity 0;
  let q2 = Query.Parse.cq_of_string "q(x,y) <- R(x,y), C(x)" in
  let max_extra = 1 in
  Fmt.pr "%-8s %-12s %-10s %-12s %-12s %-9s %s@." "chain" "candidates"
    "answers" "bounded(s)" "session(s)" "speedup" "engine stats";
  List.iter
    (fun n ->
      let d = chain n in
      let dom = Structure.Instance.domain_list d in
      let candidates =
        List.concat_map (fun a -> List.map (fun b -> [ a; b ]) dom) dom
      in
      (* Sub-millisecond single-shot timings swing by 2-3x with GC and
         scheduler state; report the best of a few repetitions instead.
         The session side opens a fresh session inside the timed thunk,
         so every repetition pays the full ground-once cost. *)
      let reps = 5 in
      let best f =
        let result = ref None in
        let best_t = ref infinity in
        for _ = 1 to reps do
          let x, t = time f in
          result := Some x;
          if t < !best_t then best_t := t
        done;
        (Option.get !result, !best_t)
      in
      let seed_answers, t_seed =
        best (fun () ->
            List.filter
              (fun tup -> Reasoner.Bounded.certain_cq ~max_extra o_horn d q2 tup)
              candidates)
      in
      let omq = Omq.of_cq o_horn q2 in
      let (eng_answers, session), t_eng =
        best (fun () ->
            let s = Omq.open_session ~max_extra omq d in
            (Omq.Session.certain_answers s, s))
      in
      let st = Omq.Session.stats session in
      Reasoner.Stats.add ~into:total st;
      let agree =
        List.sort compare seed_answers = List.sort compare eng_answers
      in
      Fmt.pr "%-8d %-12d %-10d %-12.4f %-12.4f %-9s %s@." n
        (List.length candidates) (List.length eng_answers) t_seed t_eng
        (Fmt.str "%.1fx" (t_seed /. t_eng))
        (if agree then "" else "MISMATCH");
      Fmt.pr "         stats: %s@." (Reasoner.Stats.to_json st);
      let prefix = Fmt.str "bench.engine.chain%d" n in
      record_stats prefix st;
      Obs.Metrics.set (Obs.Metrics.global ()) (prefix ^ ".speedup") (t_seed /. t_eng))
    [ 4; 8 ];
  Reasoner.Ground.set_memo_capacity 256

let parallel_corpus_table () =
  section "Parallel corpus: 24-ontology batch evaluation per jobs count";
  (* The CI workload (see EXPERIMENTS.md): certain answers of one UCQ
     over the committed 18-element instance w.r.t. every ontology of
     the seed-2017 corpus, with a deterministic grounding-clause cap so
     the one pathological deep ontology degrades ([out_of_fuel]) instead
     of dominating the batch. Results are submission-ordered, so every
     jobs count must produce identical verdicts — checked here too. *)
  Gc.compact ();
  let items = Omq.Corpus.generate ~seed:2017 ~n:24 () in
  match
    let ic = open_in_bin "data/corpus_instance.txt" in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    Structure.Parse.instance_of_string s
  with
  | exception Sys_error m ->
      Fmt.pr "skipped: %s (run from the repository root)@." m
  | data ->
      let query = Query.Parse.ucq_of_string "q(x) <- r0(x,y), C1(y)" in
      let task = Omq.Corpus.Eval { query; data; max_extra = 2 } in
      let run jobs = Omq.Corpus.run ~max_clauses:600_000 ~jobs task items in
      Fmt.pr "cores available: %d@." (Parallel.Pool.default_jobs ());
      Obs.Metrics.set_count (Obs.Metrics.global ())
        "bench.corpus.cores_available"
        (Parallel.Pool.default_jobs ());
      let project (rep : Omq.Corpus.report) =
        List.map
          (fun (r : Omq.Corpus.result_one) ->
            ( r.item_name,
              match r.outcome with
              | Ok (Omq.Corpus.Evaluated ev) ->
                  Fmt.str "ok %b %d" ev.consistent (List.length ev.answers)
              | Ok (Omq.Corpus.Classified _) -> "classified"
              | Error f -> Fmt.str "%a" Reasoner.Budget.pp_reason f.reason ))
          rep.results
      in
      let baseline = run 1 in
      let expected = project baseline in
      Fmt.pr "%-6s %-12s %-10s %s@." "jobs" "seconds" "speedup" "verdicts";
      List.iter
        (fun jobs ->
          let rep = if jobs = 1 then baseline else run jobs in
          Reasoner.Stats.add ~into:total rep.Omq.Corpus.total;
          let speedup = baseline.Omq.Corpus.seconds /. rep.Omq.Corpus.seconds in
          Fmt.pr "%-6d %-12.3f %-10s %s@." jobs rep.Omq.Corpus.seconds
            (Fmt.str "%.2fx" speedup)
            (if project rep = expected then "identical" else "MISMATCH");
          let prefix = Fmt.str "bench.corpus.jobs%d" jobs in
          Obs.Metrics.set (Obs.Metrics.global ()) (prefix ^ ".seconds")
            rep.Omq.Corpus.seconds;
          Obs.Metrics.set (Obs.Metrics.global ()) (prefix ^ ".speedup") speedup;
          (* Per-domain engine-counter context (ROADMAP item 3): how the
             grounding-memo traffic distributes over the worker domains —
             cold per-domain memos are the leading suspect for the
             recorded slowdowns. *)
          let byw = Hashtbl.create 8 in
          List.iter
            (fun (r : Omq.Corpus.result_one) ->
              let st =
                match Hashtbl.find_opt byw r.worker with
                | Some st -> st
                | None ->
                    let st = Reasoner.Stats.create () in
                    Hashtbl.add byw r.worker st;
                    st
              in
              Reasoner.Stats.add ~into:st r.stats)
            rep.Omq.Corpus.results;
          let workers =
            List.sort compare (Hashtbl.fold (fun w _ acc -> w :: acc) byw [])
          in
          List.iter
            (fun w ->
              let st = Hashtbl.find byw w in
              Fmt.pr "       domain %d: memo %d/%d (hits/misses)@." w
                st.Reasoner.Stats.memo_hits st.Reasoner.Stats.memo_misses)
            workers;
          let m = Obs.Metrics.global () in
          let total = rep.Omq.Corpus.total in
          Obs.Metrics.set_count m (prefix ^ ".memo_hits")
            total.Reasoner.Stats.memo_hits;
          Obs.Metrics.set_count m (prefix ^ ".memo_misses")
            total.Reasoner.Stats.memo_misses;
          Obs.Metrics.set_count m (prefix ^ ".domains_used")
            (List.length workers))
        [ 1; 2; 4 ]

let eval_table ?(sizes = [ 10_000; 100_000 ]) () =
  section "Cost-based evaluation: naive vs planned joins on generated instances";
  (* Multi-atom CQs over [Structure.Randgen.large] instances. The naive
     side is the backtracking reference [Homomorphism.fold_naive] from
     the canonical database; the indexed one is [Cq.answers] on the
     Relindex/Eval join planner. Both must return byte-identical
     answers — both sort, so plain structural equality checks it. *)
  let naive_answers inst q =
    Structure.Homomorphism.fold_naive
      ~fixed:(Query.Cq.constant_fixing q)
      ~source:(Query.Cq.canonical_db q) ~target:inst
      (fun m acc ->
        ( false,
          List.map
            (fun x -> Structure.Element.Map.find (Query.Cq.var_element x) m)
            q.Query.Cq.answer
          :: acc ))
      []
    |> List.sort_uniq (List.compare Structure.Element.compare)
  in
  let queries =
    [
      ("join2", "q(x,y) <- r0(x,z), r1(z,y), C0(x), C1(y)");
      ("chain3", "q(x) <- r0(x,y), r1(y,z), C2(z)");
    ]
  in
  Fmt.pr "%-9s %-8s %-9s %-12s %-12s %-9s %s@." "facts" "query" "answers"
    "naive(s)" "indexed(s)" "speedup" "identical";
  List.iter
    (fun size ->
      let rng = Random.State.make [| 2017; size |] in
      let inst =
        Structure.Randgen.large ~rng
          ~nconst:(max 300 (size / 33))
          ~nrels:4 ~nunary:4 ~unary_p:0.02 ~nfacts:size ()
      in
      let m = Obs.Metrics.global () in
      Obs.Metrics.set_count m
        (Fmt.str "bench.eval.n%d.facts" size)
        (Structure.Instance.cardinal inst);
      List.iter
        (fun (qname, qtext) ->
          let q = Query.Parse.cq_of_string qtext in
          Gc.compact ();
          let naive, t_naive = time (fun () -> naive_answers inst q) in
          let indexed, t_indexed = time (fun () -> Query.Cq.answers inst q) in
          let identical = naive = indexed in
          let speedup = t_naive /. t_indexed in
          Fmt.pr "%-9d %-8s %-9d %-12.4f %-12.4f %-9s %s@." size qname
            (List.length indexed) t_naive t_indexed
            (Fmt.str "%.1fx" speedup)
            (if identical then "identical" else "MISMATCH");
          let prefix = Fmt.str "bench.eval.n%d.%s" size qname in
          Obs.Metrics.set m (prefix ^ ".naive_seconds") t_naive;
          Obs.Metrics.set m (prefix ^ ".indexed_seconds") t_indexed;
          Obs.Metrics.set m (prefix ^ ".speedup") speedup;
          Obs.Metrics.set_count m (prefix ^ ".answers") (List.length indexed);
          Obs.Metrics.set_count m (prefix ^ ".identical")
            (if identical then 1 else 0))
        queries)
    sizes

let incremental_table ?(rounds = 30) () =
  section "Incremental updates: session delta insert/retract vs reopen";
  (* The served update path: an updatable Omq.Session absorbs each
     insert/retract as solver-assumption deltas on its grounded engines.
     Instance, ontology and query are bulk-eval's (benchmark/bulk_eval.ml):
     Randgen.large from seed 7, a three-axiom Horn TBox and a
     three-atom query. Each round inserts a 10-fact r0/r1 batch drawn
     absent from the base instance over its elements (so it is a delta,
     and its retract restores the base exactly), then retracts it. The
     p50 update latencies are compared against a reopen: dropping the
     caches, opening a session on the updated instance and deepening one
     base answer through every bound, which grounds the same engines the
     maintained session holds. After every insert the maintained answers
     must equal a cold session's, after every retract the base answers —
     the bench doubles as the equivalence proof on real volume. *)
  let inst =
    Structure.Randgen.large ~rng:(Random.State.make [| 7 |]) ~nconst:100
      ~unary_p:0.1 ~nfacts:3500 ()
  in
  let omq =
    Omq.of_tbox
      (Dl.Parser.parse_tbox "C0 << C1\nexists r0 . C1 << C2\nC2 << exists r3 . C3\n")
      (Query.Parse.ucq_of_string "q(x) <- r0(x,y), C2(x), C1(y)")
  in
  let dom = Array.of_list (Structure.Instance.domain_list inst) in
  let rng = Random.State.make [| 2017 |] in
  let batch () =
    let pick () = dom.(Random.State.int rng (Array.length dom)) in
    let rec draw acc j =
      if j = 10 then acc
      else
        let f =
          Structure.Instance.fact
            (if j mod 2 = 0 then "r0" else "r1")
            [ pick (); pick () ]
        in
        if
          Structure.Instance.mem f inst
          || List.exists (fun g -> Structure.Instance.compare_fact f g = 0) acc
        then draw acc j
        else draw (f :: acc) (j + 1)
    in
    draw [] 0
  in
  Omq.clear_caches ();
  Gc.compact ();
  let s = ref (Omq.open_session ~updatable:true omq inst) in
  (* Each certain answer deepens through every bound, so this grounds
     all of the session's engines before the first update. *)
  let base = Omq.Session.certain_answers !s in
  let probe = List.hd base in
  let reopens = ref 0 and identical = ref true in
  let ins = ref [] and del = ref [] and reopen = ref [] in
  let ans_ins = ref [] and ans_del = ref [] and cold = ref [] in
  let update apply facts =
    let (s', how), dt = time (fun () -> apply !s facts) in
    s := s';
    if how = `Reopen then incr reopens;
    dt
  in
  for _ = 1 to rounds do
    let facts = batch () in
    let updated =
      List.fold_left (fun d f -> Structure.Instance.add_fact f d) inst facts
    in
    ins := update (fun s -> Omq.Session.insert_facts s) facts :: !ins;
    let after, t_after = time (fun () -> Omq.Session.certain_answers !s) in
    ans_ins := t_after :: !ans_ins;
    let fresh, t_reopen =
      time (fun () ->
          Omq.clear_caches ();
          let c = Omq.open_session ~updatable:true omq updated in
          ignore (Omq.Session.certain c probe);
          c)
    in
    let expected, t_rest = time (fun () -> Omq.Session.certain_answers fresh) in
    Reasoner.Stats.add ~into:total (Omq.Session.stats fresh);
    reopen := t_reopen :: !reopen;
    cold := (t_reopen +. t_rest) :: !cold;
    identical := !identical && after = expected;
    del := update (fun s -> Omq.Session.retract_facts s) facts :: !del;
    let after, t_after = time (fun () -> Omq.Session.certain_answers !s) in
    ans_del := t_after :: !ans_del;
    identical := !identical && after = base
  done;
  Reasoner.Stats.add ~into:total (Omq.Session.stats !s);
  let p50 ts =
    let a = Array.of_list ts in
    Array.sort compare a;
    a.(Array.length a / 2) *. 1000.
  in
  let insert_p50_ms = p50 !ins and retract_p50_ms = p50 !del in
  let reopen_ms = p50 !reopen in
  (* conservative: reopen cost over the *slower* of the two update
     kinds — the CI gate holds even for the worst maintained path *)
  let speedup = reopen_ms /. Float.max insert_p50_ms retract_p50_ms in
  let answer_after_insert_ms = p50 !ans_ins
  and answer_after_retract_ms = p50 !ans_del
  and cold_answer_ms = p50 !cold in
  Fmt.pr "%-9s %-8s %-12s %-16s %-16s %-9s %-8s %s@." "facts" "rounds"
    "reopen(ms)" "insert p50(ms)" "retract p50(ms)" "speedup" "reopens"
    "identical";
  Fmt.pr "%-9d %-8d %-12.2f %-16.4f %-16.4f %-9s %-8d %s@."
    (Structure.Instance.cardinal inst)
    rounds reopen_ms insert_p50_ms retract_p50_ms
    (Fmt.str "%.0fx" speedup)
    !reopens
    (if !identical then "identical" else "MISMATCH");
  (* Not gated: what answering again costs once an update is absorbed,
     against a cold query (reopen plus answering) on the same instance. *)
  Fmt.pr "answer after insert p50 %.2f ms, after retract p50 %.2f ms, cold %.2f ms@."
    answer_after_insert_ms answer_after_retract_ms cold_answer_ms;
  let m = Obs.Metrics.global () in
  Obs.Metrics.set_count m "bench.incremental.facts"
    (Structure.Instance.cardinal inst);
  Obs.Metrics.set m "bench.incremental.reopen_ms" reopen_ms;
  Obs.Metrics.set m "bench.incremental.insert_p50_ms" insert_p50_ms;
  Obs.Metrics.set m "bench.incremental.retract_p50_ms" retract_p50_ms;
  Obs.Metrics.set m "bench.incremental.speedup_vs_reopen" speedup;
  Obs.Metrics.set_count m "bench.incremental.reopens" !reopens;
  Obs.Metrics.set_count m "bench.incremental.identical"
    (if !identical then 1 else 0);
  Obs.Metrics.set m "bench.incremental.answer_after_insert_p50_ms"
    answer_after_insert_ms;
  Obs.Metrics.set m "bench.incremental.answer_after_retract_p50_ms"
    answer_after_retract_ms;
  Obs.Metrics.set m "bench.incremental.cold_answer_p50_ms" cold_answer_ms

let serve_table () =
  section "Serve daemon: closed-loop load, 4 clients x 60 evals";
  (* The daemon runs on a POSIX thread of this process (its worker
     domains are its own); clients are real Unix-socket connections
     driven by Omqd.Loadgen. Every response is compared byte for byte
     against the sequential evaluation's rendering — the bench doubles
     as the proof that serving does not change answers. *)
  let module P = Omq.Protocol in
  let read_file path =
    let ic = open_in_bin path in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    s
  in
  match (read_file "data/hand.dl", read_file "data/hand_instance.txt") with
  | exception Sys_error m ->
      Fmt.pr "skipped: %s (run from the repository root)@." m
  | onto, data -> (
      let query = "q(x) <- Hand(x)" in
      let expected =
        let tbox = Dl.Parser.parse_tbox onto in
        let d = Structure.Parse.instance_of_string data in
        let q = Query.Parse.ucq_of_string query in
        let session = Omq.open_session ~max_extra:2 (Omq.of_tbox tbox q) d in
        let answers = Omq.Session.certain_answers session in
        P.render_response
          (P.Evaled
             {
               result =
                 {
                   P.consistent = true;
                   boolean = false;
                   tuples =
                     List.map
                       (List.map (fun e ->
                            Fmt.str "%a" Structure.Element.pp e))
                       answers;
                 };
               stats = None;
             })
      in
      let clients = 4 and queries = 60 and jobs = 4 in
      let path =
        Filename.concat
          (Filename.get_temp_dir_name ())
          (Printf.sprintf "omq-bench-%d.sock" (Unix.getpid ()))
      in
      let addr = Omqd.Daemon.Unix_path path in
      let cfg = Omqd.Daemon.config ~addr ~jobs () in
      let daemon = ref (Ok ()) in
      let th = Thread.create (fun () -> daemon := Omqd.Daemon.run cfg) () in
      let spec =
        {
          Omqd.Loadgen.open_req =
            P.Open_session { ontology = onto; data; query; max_extra = 2 };
          make_eval =
            (fun ~session ->
              P.Eval { session; budget = P.no_budget; want_stats = false });
          expected = Some expected;
        }
      in
      let outcome =
        Omqd.Loadgen.run addr (List.init clients (fun _ -> spec)) ~queries
      in
      (match Omqd.Client.connect ~attempts:1 addr with
      | Error _ -> ()
      | Ok c ->
          ignore (Omqd.Client.call c P.Shutdown);
          Omqd.Client.close c);
      Thread.join th;
      (match !daemon with
      | Ok () -> ()
      | Error m -> Fmt.pr "daemon exited with error: %s@." m);
      match outcome with
      | Error m -> Fmt.pr "load generator failed: %s@." m
      | Ok s ->
          Fmt.pr "%a@." Omqd.Loadgen.pp_summary s;
          let m = Obs.Metrics.global () in
          Obs.Metrics.set_count m "bench.serve.clients" s.Omqd.Loadgen.clients;
          Obs.Metrics.set_count m "bench.serve.queries_per_client"
            s.Omqd.Loadgen.queries_per_client;
          Obs.Metrics.set_count m "bench.serve.jobs" jobs;
          Obs.Metrics.set_count m "bench.serve.total" s.Omqd.Loadgen.total;
          Obs.Metrics.set_count m "bench.serve.ok" s.Omqd.Loadgen.ok;
          Obs.Metrics.set_count m "bench.serve.mismatches"
            s.Omqd.Loadgen.mismatches;
          Obs.Metrics.set m "bench.serve.seconds" s.Omqd.Loadgen.seconds;
          Obs.Metrics.set m "bench.serve.throughput_rps"
            s.Omqd.Loadgen.throughput_rps;
          Obs.Metrics.set m "bench.serve.mean_ms" s.Omqd.Loadgen.mean_ms;
          Obs.Metrics.set m "bench.serve.p50_ms" s.Omqd.Loadgen.p50_ms;
          Obs.Metrics.set m "bench.serve.p95_ms" s.Omqd.Loadgen.p95_ms;
          Obs.Metrics.set m "bench.serve.p99_ms" s.Omqd.Loadgen.p99_ms;
          Obs.Metrics.set m "bench.serve.max_ms" s.Omqd.Loadgen.max_ms)

let telemetry_overhead_table () =
  section "Telemetry overhead: identical load, metrics on vs off";
  (* Same daemon-on-a-thread closed loop as the serve table, run three
     times: one discarded warmup, then telemetry on and telemetry off.
     What's being priced is the whole per-request hot path the flight
     recorder adds — latency observation into the bucketed histogram,
     the worker-side GC sample shipped with each completion, and the
     ring write. The budget is < 5% of throughput;
     the number lands in BENCH_omq.json so CI can watch it drift. *)
  let module P = Omq.Protocol in
  let read_file path =
    let ic = open_in_bin path in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    s
  in
  match (read_file "data/hand.dl", read_file "data/hand_instance.txt") with
  | exception Sys_error m ->
      Fmt.pr "skipped: %s (run from the repository root)@." m
  | onto, data -> (
      let query = "q(x) <- Hand(x)" in
      (* Long runs: at short ones the measurement is dominated by
         daemon/session startup and scheduler noise, not the per-request
         cost being priced. *)
      let clients = 4 and queries = 200 and jobs = 4 in
      let spec =
        {
          Omqd.Loadgen.open_req =
            P.Open_session { ontology = onto; data; query; max_extra = 2 };
          make_eval =
            (fun ~session ->
              P.Eval { session; budget = P.no_budget; want_stats = false });
          expected = None;
        }
      in
      let run_load ~telemetry tag =
        let path =
          Filename.concat
            (Filename.get_temp_dir_name ())
            (Printf.sprintf "omq-bench-tel-%s-%d.sock" tag (Unix.getpid ()))
        in
        let addr = Omqd.Daemon.Unix_path path in
        let cfg = Omqd.Daemon.config ~addr ~jobs ~telemetry () in
        let daemon = ref (Ok ()) in
        let th = Thread.create (fun () -> daemon := Omqd.Daemon.run cfg) () in
        let outcome =
          Omqd.Loadgen.run addr (List.init clients (fun _ -> spec)) ~queries
        in
        (match Omqd.Client.connect ~attempts:1 addr with
        | Error _ -> ()
        | Ok c ->
            ignore (Omqd.Client.call c P.Shutdown);
            Omqd.Client.close c);
        Thread.join th;
        match (outcome, !daemon) with
        | Ok s, Ok () -> Ok s.Omqd.Loadgen.throughput_rps
        | Error m, _ | _, Error m -> Error m
      in
      let ( let* ) = Result.bind in
      (* Alternate on/off and keep the best of three each: a single
         pair is badly order-biased in-process (the major heap grows
         run over run, so whichever mode runs later looks faster).
         Best-of alternated pairs cancels that; noise only ever
         subtracts from a throughput measurement. *)
      let measured =
        let* _warmup = run_load ~telemetry:true "warmup" in
        let rec pairs n best_on best_off =
          if n = 0 then Ok (best_on, best_off)
          else
            let* on = run_load ~telemetry:true (Printf.sprintf "on%d" n) in
            let* off = run_load ~telemetry:false (Printf.sprintf "off%d" n) in
            pairs (n - 1) (Float.max best_on on) (Float.max best_off off)
        in
        pairs 3 0.0 0.0
      in
      match measured with
      | Error m -> Fmt.pr "skipped: %s@." m
      | Ok (rps_on, rps_off) ->
          let overhead_pct =
            if rps_off > 0.0 then 100.0 *. (1.0 -. (rps_on /. rps_off))
            else 0.0
          in
          Fmt.pr "telemetry on: %.1f req/s@." rps_on;
          Fmt.pr "telemetry off: %.1f req/s@." rps_off;
          Fmt.pr "overhead: %.2f%% of throughput@." overhead_pct;
          let m = Obs.Metrics.global () in
          Obs.Metrics.set m "bench.telemetry.rps_on" rps_on;
          Obs.Metrics.set m "bench.telemetry.rps_off" rps_off;
          Obs.Metrics.set m "bench.telemetry.overhead_pct" overhead_pct)

let chaos_table () =
  section "Chaos: journal recovery after a restart";
  (* Two daemons share one journal directory. The first serves a fleet
     of sessions (opens + acknowledged inserts); the second starts cold
     from the journal alone and must answer every acknowledged session
     byte-identically. The table reports the replay latency and the
     number of acknowledged facts the restart lost (must be 0). Faults
     at the socket boundary are event sequences in the core suite
     (test/test_core.ml), not a plan inside the daemon. *)
  let module P = Omq.Protocol in
  let read_file path =
    let ic = open_in_bin path in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    s
  in
  match (read_file "data/hand.dl", read_file "data/hand_instance.txt") with
  | exception Sys_error m ->
      Fmt.pr "skipped: %s (run from the repository root)@." m
  | onto, data -> (
      let query = "q(x) <- Hand(x)" in
      let extra = "Hand(z_chaos)" in
      let expected =
        let tbox = Dl.Parser.parse_tbox onto in
        let d = Structure.Parse.instance_of_string (data ^ "\n" ^ extra) in
        let q = Query.Parse.ucq_of_string query in
        let session = Omq.open_session ~max_extra:2 (Omq.of_tbox tbox q) d in
        let answers = Omq.Session.certain_answers session in
        P.render_response
          (P.Evaled
             {
               result =
                 {
                   P.consistent = true;
                   boolean = false;
                   tuples =
                     List.map
                       (List.map (fun e ->
                            Fmt.str "%a" Structure.Element.pp e))
                       answers;
                 };
               stats = None;
             })
      in
      let pid = Unix.getpid () in
      let tmp = Filename.get_temp_dir_name () in
      let dir = Filename.concat tmp (Printf.sprintf "omq-bench-chaos-%d" pid) in
      let sock n =
        Filename.concat tmp (Printf.sprintf "omq-bench-chaos-%d-%d.sock" pid n)
      in
      let sessions = 6 in
      let exception Bench_fail of string in
      try
        let call c req =
          match Omqd.Client.call ~retries:4 c req with
          | Ok r -> r
          | Error m -> raise (Bench_fail m)
        in
        let connect addr =
          match Omqd.Client.connect addr with
          | Ok c -> c
          | Error m -> raise (Bench_fail m)
        in
        let stop addr th outcome =
          (match Omqd.Client.connect ~attempts:5 addr with
          | Error _ -> ()
          | Ok c ->
              ignore (Omqd.Client.call c P.Shutdown);
              Omqd.Client.close c);
          Thread.join th;
          match !outcome with
          | Ok () -> ()
          | Error m -> Fmt.pr "daemon exited with error: %s@." m
        in
        (* phase 1: a journaled daemon acknowledges the fleet *)
        let addr1 = Omqd.Daemon.Unix_path (sock 1) in
        let cfg1 = Omqd.Daemon.config ~addr:addr1 ~jobs:2 ~journal:dir () in
        let d1 = ref (Ok ()) in
        let th1 = Thread.create (fun () -> d1 := Omqd.Daemon.run cfg1) () in
        let c = connect addr1 in
        let sids =
          List.init sessions (fun _ ->
              match
                call c (P.Open_session { ontology = onto; data; query; max_extra = 2 })
              with
              | P.Opened { session } ->
                  (match call c (P.Insert_facts { session; facts = extra }) with
                  | P.Inserted _ -> session
                  | r -> raise (Bench_fail (P.render_response r)))
              | r -> raise (Bench_fail (P.render_response r)))
        in
        Omqd.Client.close c;
        stop addr1 th1 d1;
        let journal_bytes =
          try (Unix.stat (Filename.concat dir "omq.journal")).Unix.st_size
          with Unix.Unix_error _ -> 0
        in
        (* phase 2: cold restart from the journal alone *)
        let t0 = Obs.Clock.now () in
        let ready_at = ref Float.nan in
        let addr2 = Omqd.Daemon.Unix_path (sock 2) in
        let cfg2 = Omqd.Daemon.config ~addr:addr2 ~jobs:2 ~journal:dir () in
        let d2 = ref (Ok ()) in
        let th2 =
          Thread.create
            (fun () ->
              d2 :=
                Omqd.Daemon.run
                  ~ready:(fun () -> ready_at := Obs.Clock.now ())
                  cfg2)
            ()
        in
        let c = connect addr2 in
        let lost =
          List.fold_left
            (fun acc session ->
              let resp =
                call c
                  (P.Eval { session; budget = P.no_budget; want_stats = false })
              in
              if P.render_response resp = expected then acc else acc + 1)
            0 sids
        in
        Omqd.Client.close c;
        stop addr2 th2 d2;
        let recovery_ms =
          if Float.is_nan !ready_at then Float.nan
          else 1000.0 *. (!ready_at -. t0)
        in
        Fmt.pr
          "%d session(s); restart: replayed %d byte journal in %.1f ms, lost \
           acked facts: %d@."
          sessions journal_bytes recovery_ms lost;
        let m = Obs.Metrics.global () in
        Obs.Metrics.set_count m "bench.chaos.sessions" sessions;
        Obs.Metrics.set_count m "bench.chaos.journal_bytes" journal_bytes;
        Obs.Metrics.set_count m "bench.chaos.lost_acked_facts" lost;
        Obs.Metrics.set m "bench.chaos.recovery_ms" recovery_ms
      with Bench_fail m -> Fmt.pr "chaos bench failed: %s@." m)

let thm5_table () =
  section "Theorem 5: the type-based Datalog!= evaluation vs certain answers";
  Fmt.pr "%-8s %-10s %-10s %-12s %-12s@." "chain" "rewriting" "certain" "t_rewrite" "t_certain";
  List.iter
    (fun n ->
      let d = chain n in
      let r1, t1 =
        time (fun () -> Rewriting.Typeprog.entails ~extra:2 o_horn qc d [ e "n0" ])
      in
      let r2, t2 =
        time (fun () ->
            Reasoner.Engine.certain_cq ~max_extra:2
              (Reasoner.Engine.create o_horn d) qc [ e "n0" ])
      in
      let r3 = Reasoner.Bounded.certain_cq ~max_extra:2 o_horn d qc [ e "n0" ] in
      Fmt.pr "%-8d %-10b %-10b %-12.3f %-12.3f %s@." n r1 r2 t1 t2
        (oracle (Bool.equal r1 r2 && Bool.equal r2 r3)))
    [ 1; 3; 5 ]

let thm8_table () =
  section "Theorem 8: CSP vs the OMQ encoding (K2 easy, K3 NP-hard)";
  let rng = Random.State.make [| 23 |] in
  Fmt.pr "%-6s %-6s %-12s %-12s %-12s@." "k" "nodes" "CSP" "encoding" "agrees";
  List.iter
    (fun (k, n) ->
      let template = Csp.Precolor.closure (Csp.Template.k_colouring k) in
      let o = Csp.Encode.ontology template in
      let g = random_graph ~rng ~n ~p:0.35 in
      let direct = Csp.Solve.solvable template g in
      let lifted = Csp.Encode.lift_instance template g in
      let consistent =
        Reasoner.Engine.is_consistent ~max_extra:2 (Reasoner.Engine.create o lifted)
      in
      Fmt.pr "%-6d %-6d %-12b %-12b %-12b %s@." k n direct consistent
        (Bool.equal direct consistent)
        (oracle
           (Bool.equal consistent
              (Reasoner.Bounded.is_consistent ~max_extra:2 o lifted))))
    [ (2, 4); (2, 6); (3, 4); (3, 6) ]

let thm10_table () =
  section "Theorem 10: grid verification and the triggered disjunction";
  let p = Tm.Tiling.trivial in
  let o = Dl.Translate.tbox (Tm.Gridenc.ontology_undecidability p) in
  let qb1 = Query.Parse.cq_of_string "q(x) <- B1(x)" in
  let qb2 = Query.Parse.cq_of_string "q(x) <- B2(x)" in
  let corner = e "g_0_0" in
  let proper = Tm.Tiling.grid_instance (Option.get (Tm.Tiling.solve_fixed p 1 0)) in
  let broken = Structure.Parse.instance_of_string "B(g_0_0)\nF(g_1_0)\nX(g_0_0, g_1_0)" in
  Fmt.pr "%-14s %-10s %-20s@." "instance" "grid(d)" "B1|B2 certain";
  let pointed = [ (qb1, [ corner ]); (qb2, [ corner ]) ] in
  List.iter
    (fun (name, d) ->
      let certain =
        Reasoner.Engine.certain_disjunction ~max_extra:0
          (Reasoner.Engine.create o d) pointed
      in
      Fmt.pr "%-14s %-10b %-20b %s@." name
        (Tm.Gridenc.grid_holds p d corner)
        certain
        (oracle
           (Bool.equal certain
              (Reasoner.Bounded.certain_disjunction ~max_extra:0 o d pointed))))
    [ ("proper grid", proper); ("broken grid", broken) ];
  Fmt.pr "unsolvable problem admits a tiling: %b (paper: false)@."
    (Tm.Tiling.admits_tiling Tm.Tiling.unsolvable)

let thm13_table () =
  section "Theorem 13: deciding PTIME query evaluation";
  List.iter
    (fun (name, o) ->
      let verdict, t = time (fun () -> Classify.Decide.decide ~samples:5 o) in
      match verdict with
      | Classify.Decide.Ptime_evidence n ->
          Fmt.pr "%-10s PTIME (%d bouquets, %.1fs)@." name n t
      | Classify.Decide.Conp_hard w ->
          Fmt.pr "%-10s coNP-hard (witness of %d elements, %.1fs)@." name
            (Structure.Instance.domain_size w) t)
    [ ("O1", o1); ("O2", o2); ("O1+O2", o_union) ]

let thm3_table () =
  section "Theorem 3: the 2+2-SAT reduction";
  let witness =
    {
      Sat22.Reduction.base = Structure.Parse.instance_of_string "D(a)";
      q1 = Query.Parse.cq_of_string "q1(x) <- A(x)";
      a1 = e "a";
      q2 = Query.Parse.cq_of_string "q2(x) <- B(x)";
      a2 = e "a";
    }
  in
  let o_disj =
    Logic.Ontology.make
      [ forall_eq "x"
          (Logic.Formula.Implies
             ( atom "D" [ v "x" ],
               Logic.Formula.Or (atom "A" [ v "x" ], atom "B" [ v "x" ]) ))
      ]
  in
  let rng = Random.State.make [| 77 |] in
  let agree = ref 0 and total = 8 in
  for _ = 1 to total do
    let f = Sat22.Twotwosat.random ~rng ~nvars:2 ~nclauses:2 in
    let unsat, certain = Sat22.Reduction.unsat_iff_certain o_disj witness f in
    if Bool.equal unsat certain then incr agree
  done;
  Fmt.pr "random 2+2 formulas: unsat iff certain on %d/%d@." !agree total

let unravel_table () =
  section "Section 4: unravellings (Examples 5 and 6)";
  let tri =
    Structure.Parse.instance_of_string "R(a,b)\nR(b,c)\nR(c,a)"
  in
  List.iter
    (fun depth ->
      let u = Structure.Unravel.unravel ~depth tri in
      let du = Structure.Unravel.instance u in
      Fmt.pr "depth %d: unravelled triangle has %d facts, acyclic: %b@." depth
        (Structure.Instance.cardinal du)
        (Structure.Treedec.is_guarded_tree_decomposable du))
    [ 1; 2; 4 ]

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks: one per experiment                        *)
(* ------------------------------------------------------------------ *)

let tests =
  let hand = hands 1 in
  let pointed = List.init 5 (fun f -> (thumb, [ e (Printf.sprintf "h0_f%d" f) ])) in
  let chain3 = chain 3 in
  let rng = Random.State.make [| 5 |] in
  let k2 = Csp.Precolor.closure (Csp.Template.k_colouring 2) in
  let o_k2 = Csp.Encode.ontology k2 in
  let g6 = random_graph ~rng ~n:6 ~p:0.35 in
  let g6l = Csp.Encode.lift_instance k2 g6 in
  let p = Tm.Tiling.trivial in
  let o_p = Dl.Translate.tbox (Tm.Gridenc.ontology_undecidability p) in
  let grid = Tm.Tiling.grid_instance (Option.get (Tm.Tiling.solve_fixed p 1 0)) in
  let qb1 = Query.Parse.cq_of_string "q(x) <- B1(x)" in
  let qb2 = Query.Parse.cq_of_string "q(x) <- B2(x)" in
  let corpus20 = lazy (Bioportal.Generate.corpus ~n:20 ()) in
  let w22 =
    {
      Sat22.Reduction.base = Structure.Parse.instance_of_string "D(a)";
      q1 = Query.Parse.cq_of_string "q1(x) <- A(x)";
      a1 = e "a";
      q2 = Query.Parse.cq_of_string "q2(x) <- B(x)";
      a2 = e "a";
    }
  in
  let o_disj =
    Logic.Ontology.make
      [ forall_eq "x"
          (Logic.Formula.Implies
             ( atom "D" [ v "x" ],
               Logic.Formula.Or (atom "A" [ v "x" ], atom "B" [ v "x" ]) ))
      ]
  in
  let f22 =
    let rng = Random.State.make [| 3 |] in
    Sat22.Twotwosat.random ~rng ~nvars:2 ~nclauses:2
  in
  [
    Test.make ~name:"fig1_landscape" (Staged.stage (fun () ->
        List.map (fun (_, ev, _) -> ev) Classify.Landscape.figure1));
    Test.make ~name:"bioportal_table" (Staged.stage (fun () ->
        Bioportal.Analyze.tabulate
          (List.map Bioportal.Analyze.analyze (Lazy.force corpus20))));
    Test.make ~name:"hand_finger" (Staged.stage (fun () ->
        Reasoner.Engine.certain_disjunction ~max_extra:1
          (Reasoner.Engine.create o_union hand) pointed));
    Test.make ~name:"example1_limits" (Staged.stage (fun () ->
        Material.Materializability.materializable_on ~max_model_extra:1
          (Reasoner.Engine.create o_mat_ptime
             (Structure.Parse.instance_of_string "D(c)"))));
    Test.make ~name:"thm5_rewriting" (Staged.stage (fun () ->
        Rewriting.Typeprog.entails ~extra:1 o_horn qc chain3 [ e "n0" ]));
    Test.make ~name:"thm8_csp" (Staged.stage (fun () ->
        Reasoner.Engine.is_consistent ~max_extra:1
          (Reasoner.Engine.create o_k2 g6l)));
    Test.make ~name:"thm10_tiling" (Staged.stage (fun () ->
        Reasoner.Engine.certain_disjunction ~max_extra:0
          (Reasoner.Engine.create o_p grid)
          [ (qb1, [ e "g_0_0" ]); (qb2, [ e "g_0_0" ]) ]));
    Test.make ~name:"thm13_decide" (Staged.stage (fun () ->
        Classify.Decide.decide ~samples:0 ~max_outdegree:2 o2));
    Test.make ~name:"thm3_twotwosat" (Staged.stage (fun () ->
        Sat22.Reduction.unsat_iff_certain o_disj w22 f22));
    Test.make ~name:"unravel_examples" (Staged.stage (fun () ->
        Structure.Unravel.unravel ~depth:3
          (Structure.Parse.instance_of_string "R(a,b)\nR(b,c)\nR(c,a)")));
  ]

let run_benchmarks () =
  section "Bechamel micro-benchmarks (time per run)";
  let cfg = Benchmark.cfg ~limit:50 ~quota:(Time.second 1.0) ~kde:(Some 10) () in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  List.iter
    (fun test ->
      List.iter
        (fun (name, raw) ->
          let result = Analyze.one ols Instance.monotonic_clock raw in
          let estimate =
            match Analyze.OLS.estimates result with
            | Some [ est ] ->
                Obs.Metrics.set (Obs.Metrics.global ())
                  ("bench." ^ name ^ ".ms_per_run")
                  (est /. 1e6);
                Fmt.str "%.3f ms/run" (est /. 1e6)
            | _ -> "n/a"
          in
          Fmt.pr "%-22s %s@." name estimate)
        (Hashtbl.fold
           (fun k v acc -> (k, v) :: acc)
           (Benchmark.all cfg Instance.[ monotonic_clock ] test)
           []))
    tests

(* Every metric the tables and micro-benchmarks recorded, as one flat
   JSON object keyed by metric name. *)
(* Machine context for the committed baseline: how many cores the run
   had and which job counts the parallel tables used, so a reviewer can
   judge the speedup/throughput numbers. *)
let meta_metrics () =
  let m = Obs.Metrics.global () in
  Obs.Metrics.set_count m "bench.meta.cores_used" (Parallel.Pool.default_jobs ());
  Obs.Metrics.set_count m "bench.meta.corpus_jobs_max" 4;
  Obs.Metrics.set_count m "bench.meta.serve_jobs" 4

let write_metrics path =
  let oc = open_out path in
  output_string oc (Obs.Json.render (Obs.Metrics.to_json (Obs.Metrics.global ())));
  output_char oc '\n';
  close_out oc;
  Fmt.pr "@.metrics written to %s@." path

let () =
  Fmt.pr "Reproduction harness: Hernich, Lutz, Papacchini, Wolter — PODS'17@.";
  if Array.exists (String.equal "--smoke") Sys.argv then begin
    (* CI smoke mode: just the engine table (the regression tripwire for
       the grounder/solver handoff), written to a separate file so the
       committed full-run baseline is never clobbered. *)
    engine_table ();
    parallel_corpus_table ();
    eval_table ~sizes:[ 10_000 ] ();
    incremental_table ();
    meta_metrics ();
    record_stats "bench.total" total;
    write_metrics "BENCH_smoke.json"
  end
  else begin
    fig1_table ();
    bioportal_table ();
    hand_table ();
    example1_table ();
    engine_table ();
    parallel_corpus_table ();
    eval_table ();
    incremental_table ();
    serve_table ();
    telemetry_overhead_table ();
    chaos_table ();
    thm5_table ();
    thm8_table ();
    thm10_table ();
    thm13_table ();
    thm3_table ();
    unravel_table ();
    run_benchmarks ();
    meta_metrics ();
    record_stats "bench.total" total;
    write_metrics "BENCH_omq.json"
  end;
  Fmt.pr "@.done.@."
