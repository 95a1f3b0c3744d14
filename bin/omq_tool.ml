(* The command-line front end:

     omq_tool classify ONTOLOGY.dl [--json]
     omq_tool eval ONTOLOGY.dl DATA.txt 'q(x) <- Thumb(x)' [--json] [--stats]
     omq_tool fig1 [--json]
     omq_tool corpus --seed 2017 -n 411
     omq_tool decide ONTOLOGY.dl [--json]
     omq_tool serve --socket omq.sock --jobs 4
     omq_tool request --socket omq.sock '{"v":2,"op":"stats"}'
     omq_tool request --socket omq.sock \
       '{"v":2,"op":"retract_facts","session":0,"facts":"Thumb(t)"}'

   Every command takes the same resource/observability flag spec
   ([common] below); --json output of classify/eval/decide renders
   through Omq.Protocol, so a one-shot CLI answer is byte-compatible
   with the serve daemon's response for the same work (the daemon adds
   only the echoed request id). *)

open Cmdliner
module P = Omq.Protocol

(* ------------------------------------------------------------------ *)
(* Input loading: every parser in the tool reports errors the same way,
   as [Error "file:line: message"], and every command funnels through
   [run_result]. *)

let read_file path =
  try
    let ic = open_in_bin path in
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    Ok s
  with Sys_error m -> Error m

let ( let* ) = Result.bind

let load_tbox path =
  let* text = read_file path in
  try Ok (Dl.Parser.parse_tbox text) with
  | Dl.Parser.Parse_error { line; message } ->
      Error (Printf.sprintf "%s:%d: %s" path line message)
  | Dl.Lexer.Lex_error { line; col; message } ->
      Error (Printf.sprintf "%s:%d:%d: %s" path line col message)

let load_instance path =
  let* text = read_file path in
  try Ok (Structure.Parse.instance_of_string text) with
  | Structure.Parse.Parse_error { line; message } ->
      Error (Printf.sprintf "%s:%d: %s" path line message)

let load_query text =
  try Ok (Query.Parse.ucq_of_string text)
  with Query.Parse.Parse_error m -> Error (Printf.sprintf "query: %s" m)

let run_result f =
  match f () with
  | Ok code -> code
  | Error m ->
      Fmt.epr "omq_tool: %s@." m;
      1

(* ------------------------------------------------------------------ *)
(* The commands with bespoke --json shapes (fig1, corpus, loadgen) build
   Obs.Json values and render them once; classify/eval/decide render
   through Omq.Protocol instead. *)

module J = Obs.Json

let json_int n = J.Num (float_of_int n)

let status_name (s : Classify.Landscape.status) =
  Fmt.str "%a" Classify.Landscape.pp_status s

let element_name e = Fmt.str "%a" Structure.Element.pp e

(* ------------------------------------------------------------------ *)
(* Exit codes. A tripped budget is not an error — the tool prints a
   partial result and exits with a distinct code. Cmdliner's default
   cli_error is also 124, so command-line misuse is remapped to the
   conventional 2 to keep 124 = timed out unambiguous. The table below
   is advertised in every command's man page. *)

let exit_timeout = 124
let exit_fuel = 125
let exit_cli_misuse = 2
let exit_internal = 70

let exits =
  [
    Cmd.Exit.info 0 ~doc:"on success.";
    Cmd.Exit.info 1
      ~doc:"on an input or runtime error (unreadable file, parse error).";
    Cmd.Exit.info exit_cli_misuse ~doc:"on command-line misuse.";
    Cmd.Exit.info exit_internal
      ~doc:"on an internal error (uncaught exception).";
    Cmd.Exit.info exit_timeout
      ~doc:
        "when the $(b,--timeout) budget tripped; the partial result \
         computed so far was reported first.";
    Cmd.Exit.info exit_fuel
      ~doc:
        "when the $(b,--fuel) or $(b,--max-clauses) budget tripped; the \
         partial result computed so far was reported first.";
  ]

let reason_code = function
  | Reasoner.Budget.Timeout -> exit_timeout
  | Reasoner.Budget.Fuel -> exit_fuel

let reason_name = P.reason_name

(* ------------------------------------------------------------------ *)
(* The shared flag spec: every command accepts the same resource-budget
   and observability flags (serve reuses the budget flags as its
   per-request admission caps). *)

type common = {
  json : bool;
  timeout : float option;
  fuel : int option;
  max_clauses : int option;
  trace : string option;
  trace_format : Obs.Export.format;
  profile : bool;
}

let common_term =
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:
            "Emit a machine-readable JSON object on stdout. For \
             $(b,classify), $(b,eval) and $(b,decide) this is an \
             Omq.Protocol response frame, byte-compatible with the serve \
             daemon's.")
  in
  let timeout_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "timeout" ] ~docv:"SECS"
          ~doc:
            "Wall-clock deadline in seconds. On expiry the tool reports \
             the partial result computed so far and exits with code 124. \
             Under $(b,serve): per-request admission cap.")
  in
  let fuel_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "fuel" ] ~docv:"N"
          ~doc:
            "Solver fuel: total propagations + conflicts allowed. On \
             exhaustion the tool reports the partial result computed so \
             far and exits with code 125. Under $(b,serve): per-request \
             admission cap.")
  in
  let clauses_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-clauses" ] ~docv:"N"
          ~doc:
            "Cap on emitted ground clauses; a tripped run reports \
             out_of_fuel and exits with code 125. Under $(b,serve): \
             per-request admission cap.")
  in
  let trace_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Record a trace of the run and write it to $(docv). The \
             default format loads into chrome://tracing or \
             ui.perfetto.dev; see $(b,--trace-format).")
  in
  let trace_format_arg =
    Arg.(
      value
      & opt
          (enum [ ("chrome", Obs.Export.Chrome); ("jsonl", Obs.Export.Jsonl) ])
          Obs.Export.Chrome
      & info [ "trace-format" ] ~docv:"FMT"
          ~doc:
            "Trace file format: $(b,chrome) (trace-event JSON) or \
             $(b,jsonl).")
  in
  let profile_arg =
    Arg.(
      value & flag
      & info [ "profile" ]
          ~doc:
            "Print a per-phase profile (span name, count, self and total \
             seconds) on stderr after the command.")
  in
  let make json timeout fuel max_clauses trace trace_format profile =
    { json; timeout; fuel; max_clauses; trace; trace_format; profile }
  in
  Term.(
    const make $ json_arg $ timeout_arg $ fuel_arg $ clauses_arg $ trace_arg
    $ trace_format_arg $ profile_arg)

let budget_of (c : common) =
  match (c.timeout, c.fuel, c.max_clauses) with
  | None, None, None -> Reasoner.Budget.unlimited
  | timeout, fuel, max_clauses ->
      Reasoner.Budget.create ?timeout ?fuel ?max_clauses ()

(* --trace FILE installs an Obs collector for the duration of the
   command and exports it in the requested format; --profile prints a
   per-phase self/total table (to stderr, so --json stays clean on
   stdout). Both work together and compose with budget trips: a tripped
   run exports a closed trace whose root span carries the reason. *)
let with_tracing (c : common) f =
  if c.trace = None && not c.profile then f ()
  else begin
    let r, col = Obs.Trace.collect f in
    if c.profile then
      Fmt.epr "%a@." Obs.Export.pp_profile (Obs.Export.profile col);
    match Option.iter (fun path -> Obs.Export.to_file c.trace_format col path) c.trace with
    | () -> r
    | exception Sys_error m -> Error m
  end

let print_response resp = Fmt.pr "%s@." (P.render_response resp)

(* ------------------------------------------------------------------ *)

let ontology_arg =
  Arg.(
    required
    & pos 0 (some file) None
    & info [] ~docv:"ONTOLOGY" ~doc:"DL ontology file (one axiom per line).")

let classify_cmd =
  let run path (c : common) =
    run_result @@ fun () ->
    with_tracing c @@ fun () ->
    let* tbox = load_tbox path in
    let o = Dl.Translate.tbox tbox in
    let fragment = Gf.Fragment.of_ontology o in
    let ev = Classify.Landscape.of_tbox tbox in
    if c.json then
      print_response
        (P.Classified
           {
             dl_name = Dl.Tbox.name tbox;
             depth = Dl.Tbox.depth tbox;
             fragment = Option.map Gf.Fragment.name fragment;
             status = status_name ev.Classify.Landscape.status;
             evidence_fragment = ev.Classify.Landscape.fragment;
             source = ev.Classify.Landscape.source;
           })
    else begin
      Fmt.pr "DL name:   %s (depth %d)@." (Dl.Tbox.name tbox)
        (Dl.Tbox.depth tbox);
      (match fragment with
      | Some d -> Fmt.pr "fragment:  %s@." (Gf.Fragment.name d)
      | None -> Fmt.pr "fragment:  outside uGF/uGC2@.");
      Fmt.pr "status:    %a@." Classify.Landscape.pp_evidence ev
    end;
    Ok 0
  in
  Cmd.v
    (Cmd.info "classify" ~exits
       ~doc:"Locate an ontology in the Figure 1 landscape.")
    Term.(const run $ ontology_arg $ common_term)

let eval_cmd =
  let data_arg =
    Arg.(
      required
      & pos 1 (some file) None
      & info [] ~docv:"DATA" ~doc:"Instance file (one fact per line).")
  in
  let query_arg =
    Arg.(
      required
      & pos 2 (some string) None
      & info [] ~docv:"QUERY" ~doc:"UCQ, e.g. 'q(x) <- Thumb(x)'.")
  in
  let bound_arg =
    Arg.(
      value & opt int 2 & info [ "max-extra" ] ~doc:"Countermodel domain bound.")
  in
  let stats_arg =
    Arg.(
      value & flag
      & info [ "stats" ]
          ~doc:"Report engine counters (groundings, solves, memo traffic).")
  in
  let explain_arg =
    Arg.(
      value & flag
      & info [ "explain" ]
          ~doc:
            "Before evaluating, print the planner's chosen join order and \
             index access methods over the input instance as one JSON line \
             (one plan per disjunct of the UCQ).")
  in
  let run path data query max_extra stats explain (c : common) =
    run_result @@ fun () ->
    with_tracing c @@ fun () ->
    let* tbox = load_tbox path in
    let* d = load_instance data in
    let* q = load_query query in
    if explain then
      Fmt.pr "%s@."
        (J.render
           (J.Obj
              [
                ( "plans",
                  J.Arr
                    (List.map (Query.Cq.explain d) (Query.Ucq.disjuncts q)) );
              ]));
    let omq = Omq.of_tbox tbox q in
    let budget = budget_of c in
    let session = Omq.open_session ~max_extra omq d in
    let boolean = Query.Ucq.is_boolean q in
    let names = List.map (List.map element_name) in
    let proto_stats () =
      if stats then Some (Reasoner.Stats.json (Omq.Session.stats session))
      else None
    in
    (* A tripped budget: report what was certified before exhaustion and
       where to resume, then exit with the reason's code. *)
    let partial reason (p : Omq.Session.partial_answers) =
      let next =
        match p.Omq.Session.undecided () with
        | Seq.Nil -> None
        | Seq.Cons (t, _) -> Some t
      in
      if c.json then
        print_response
          (P.Partial
             {
               reason;
               certified = names p.Omq.Session.certified;
               resume_from = Option.map (List.map element_name) next;
               stats = proto_stats ();
             })
      else begin
        Fmt.pr "%a: partial result@." Reasoner.Budget.pp_reason reason;
        Fmt.pr "%d tuple(s) certified before exhaustion@."
          (List.length p.Omq.Session.certified);
        List.iter
          (fun t ->
            Fmt.pr "  (%a)@." Fmt.(list ~sep:comma Structure.Element.pp) t)
          p.Omq.Session.certified;
        (match next with
        | Some t ->
            Fmt.pr "resume from tuple (%a)@."
              Fmt.(list ~sep:comma Structure.Element.pp)
              t
        | None -> ());
        if stats then Fmt.pr "%a@." Reasoner.Stats.pp (Omq.Session.stats session)
      end;
      Ok (reason_code reason)
    in
    let complete consistent answers =
      if c.json then
        print_response
          (P.Evaled
             {
               result = { P.consistent; boolean; tuples = names answers };
               stats = proto_stats ();
             })
      else begin
        if not consistent then
          Fmt.pr
            "instance inconsistent with the ontology: every tuple is an answer@."
        else if boolean then Fmt.pr "certain: %b@." (answers <> [])
        else begin
          Fmt.pr "%d certain answer(s)@." (List.length answers);
          List.iter
            (fun t ->
              Fmt.pr "  (%a)@." Fmt.(list ~sep:comma Structure.Element.pp) t)
            answers
        end;
        if stats then Fmt.pr "%a@." Reasoner.Stats.pp (Omq.Session.stats session)
      end;
      Ok 0
    in
    let no_partial = { Omq.Session.certified = []; undecided = Seq.empty } in
    match Omq.Session.is_consistent_within budget session with
    | `Timeout () -> partial Reasoner.Budget.Timeout no_partial
    | `Out_of_fuel () -> partial Reasoner.Budget.Fuel no_partial
    | `Ok false -> complete false []
    | `Ok true -> (
        match Omq.Session.certain_answers_within budget session with
        | `Ok answers -> complete true answers
        | `Timeout p -> partial Reasoner.Budget.Timeout p
        | `Out_of_fuel p -> partial Reasoner.Budget.Fuel p)
  in
  Cmd.v
    (Cmd.info "eval" ~exits
       ~doc:
         "Certain answers of a UCQ over an instance w.r.t. an ontology. With \
          $(b,--timeout), $(b,--fuel) or $(b,--max-clauses) the evaluation \
          degrades gracefully: a tripped budget prints the tuples certified \
          so far plus a resumption hint and exits 124 (timeout) or 125 \
          (fuel/clauses).")
    Term.(
      const run $ ontology_arg $ data_arg $ query_arg $ bound_arg $ stats_arg
      $ explain_arg $ common_term)

let gen_cmd =
  let seed_arg =
    Arg.(value & opt int 0 & info [ "seed" ] ~docv:"N" ~doc:"RNG seed.")
  in
  let facts_arg =
    Arg.(
      value & opt int 100_000
      & info [ "facts" ] ~docv:"N"
          ~doc:
            "Number of binary-fact draws (duplicates collapse, so the \
             instance holds approximately this many binary facts).")
  in
  let consts_arg =
    Arg.(
      value & opt (some int) None
      & info [ "consts" ] ~docv:"N"
          ~doc:"Number of constants (default: max 300 FACTS/33).")
  in
  let rels_arg =
    Arg.(
      value & opt int 4
      & info [ "rels" ] ~docv:"N" ~doc:"Number of binary relations r0…")
  in
  let unary_arg =
    Arg.(
      value & opt int 4
      & info [ "unary" ] ~docv:"N" ~doc:"Number of unary concepts C0…")
  in
  let unary_p_arg =
    Arg.(
      value & opt float 0.02
      & info [ "unary-p" ] ~docv:"P"
          ~doc:"Probability each concept holds of each constant.")
  in
  let output_arg =
    Arg.(
      value & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE"
          ~doc:"Write to FILE instead of standard output.")
  in
  let run seed facts consts rels unary unary_p output =
    run_result @@ fun () ->
    let rng = Random.State.make [| seed |] in
    let nconst =
      match consts with Some n -> n | None -> max 300 (facts / 33)
    in
    let inst =
      Structure.Randgen.large ~rng ~nconst ~nrels:rels ~nunary:unary ~unary_p
        ~nfacts:facts ()
    in
    let buf = Buffer.create (1 lsl 20) in
    List.iter
      (fun (f : Structure.Instance.fact) ->
        Buffer.add_string buf f.rel;
        Buffer.add_char buf '(';
        List.iteri
          (fun i e ->
            if i > 0 then Buffer.add_string buf ", ";
            Buffer.add_string buf (element_name e))
          f.args;
        Buffer.add_string buf ")\n")
      (Structure.Instance.facts inst);
    (match output with
    | None -> print_string (Buffer.contents buf)
    | Some path ->
        Out_channel.with_open_text path (fun oc ->
            Out_channel.output_string oc (Buffer.contents buf)));
    Ok 0
  in
  Cmd.v
    (Cmd.info "gen" ~exits
       ~doc:
         "Generate a deterministic large random instance in the text fact \
          format ($(b,R(a,b)) lines, sorted). Facts are drawn directly \
          rather than by enumerating the tuple space, so $(i,10^5)–$(i,10^6) \
          facts are cheap; the same seed always yields the same instance.")
    Term.(
      const run $ seed_arg $ facts_arg $ consts_arg $ rels_arg $ unary_arg
      $ unary_p_arg $ output_arg)

let fig1_cmd =
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ] ~doc:"Emit a machine-readable JSON array on stdout.")
  in
  let run json =
    if json then
      Fmt.pr "%s@."
        (J.render
           (J.Arr
              (List.map
                 (fun (name, (ev : Classify.Landscape.evidence), expected) ->
                   J.Obj
                     [
                       ("fragment", J.Str name);
                       ("computed", J.Str (status_name ev.status));
                       ("paper", J.Str (status_name expected));
                       ("match", J.Bool (ev.status = expected));
                     ])
                 Classify.Landscape.figure1)))
    else begin
      Fmt.pr "%-18s %-14s %-14s@." "fragment" "computed" "paper";
      List.iter
        (fun (name, (ev : Classify.Landscape.evidence), expected) ->
          Fmt.pr "%-18s %-14s %-14s %s@." name
            (Fmt.str "%a" Classify.Landscape.pp_status ev.status)
            (Fmt.str "%a" Classify.Landscape.pp_status expected)
            (if ev.status = expected then "ok" else "MISMATCH"))
        Classify.Landscape.figure1
    end;
    0
  in
  Cmd.v
    (Cmd.info "fig1" ~exits ~doc:"Regenerate the Figure 1 landscape.")
    Term.(const run $ json_arg)

let corpus_cmd =
  let seed_arg = Arg.(value & opt int 2017 & info [ "seed" ] ~doc:"Corpus seed.") in
  let n_arg = Arg.(value & opt int 411 & info [ "n" ] ~doc:"Corpus size.") in
  let dir_arg =
    Arg.(
      value
      & pos 0 (some dir) None
      & info [] ~docv:"DIR"
          ~doc:
            "Directory of $(b,.dl) ontology files. When omitted, the \
             synthetic BioPortal corpus ($(b,--seed)/$(b,-n)) is used.")
  in
  let jobs_arg =
    Arg.(
      value & opt int 1
      & info [ "jobs"; "j" ] ~docv:"N"
          ~doc:
            "Worker domains. Results are assembled in submission order, so \
             stdout is bit-identical for every $(docv).")
  in
  let classify_flag =
    Arg.(
      value & flag
      & info [ "classify" ]
          ~doc:"Classify every ontology in the Figure 1 landscape.")
  in
  let eval_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "eval" ] ~docv:"QUERY"
          ~doc:
            "Evaluate this UCQ over $(b,--data) w.r.t. every ontology of the \
             corpus.")
  in
  let data_arg =
    Arg.(
      value
      & opt (some file) None
      & info [ "data" ] ~docv:"FILE" ~doc:"Instance file for $(b,--eval).")
  in
  let bound_arg =
    Arg.(
      value & opt int 2 & info [ "max-extra" ] ~doc:"Countermodel domain bound.")
  in
  let stats_arg =
    Arg.(
      value & flag
      & info [ "stats" ]
          ~doc:"Report aggregated engine counters on stderr after the batch.")
  in
  (* Stdout carries only schedule-independent data: per-item verdicts in
     submission order. Wall time, job count and engine counters vary run
     to run (and with the item-to-domain assignment), so they go to
     stderr — the parallel-determinism CI job diffs stdout across
     [--jobs] counts byte for byte. *)
  let summary stats (report : Omq.Corpus.report) =
    let tripped =
      List.length
        (List.filter
           (fun (r : Omq.Corpus.result_one) -> Result.is_error r.outcome)
           report.results)
    in
    Fmt.epr "corpus: %d item(s), jobs=%d, %.3fs, %d tripped@."
      (List.length report.results)
      report.jobs report.seconds tripped;
    if stats then Fmt.epr "%a@." Reasoner.Stats.pp report.total
  in
  let exit_of report =
    match Omq.Corpus.worst_failure report with
    | None -> 0
    | Some reason -> reason_code reason
  in
  let failure_fields (f : Omq.Corpus.failure) =
    [ ("outcome", J.Str (reason_name f.reason)) ]
  in
  let render_classify json report =
    if json then
      Fmt.pr "%s@."
        (J.render
           (J.Obj
              [
                ("task", J.Str "classify");
                ("count", json_int (List.length report.Omq.Corpus.results));
                ( "items",
                  J.Arr
                    (List.map
                       (fun (r : Omq.Corpus.result_one) ->
                         J.Obj
                           (("name", J.Str r.item_name)
                            ::
                            (match r.outcome with
                            | Error f -> failure_fields f
                            | Ok (Omq.Corpus.Evaluated _) -> assert false
                            | Ok (Omq.Corpus.Classified c) ->
                                [
                                  ("outcome", J.Str "ok");
                                  ("dl_name", J.Str c.dl_name);
                                  ("depth", json_int c.depth);
                                  ( "fragment",
                                    match c.fragment with
                                    | Some d -> J.Str (Gf.Fragment.name d)
                                    | None -> J.Null );
                                  ( "status",
                                    J.Str
                                      (status_name
                                         c.evidence.Classify.Landscape.status) );
                                ])))
                       report.Omq.Corpus.results) );
              ]))
    else
      List.iter
        (fun (r : Omq.Corpus.result_one) ->
          match r.outcome with
          | Error f ->
              Fmt.pr "%-14s %a@." r.item_name Reasoner.Budget.pp_reason f.reason
          | Ok (Omq.Corpus.Evaluated _) -> assert false
          | Ok (Omq.Corpus.Classified c) ->
              Fmt.pr "%-14s %-10s depth=%d  %-12s %a@." r.item_name c.dl_name
                c.depth
                (match c.fragment with
                | Some d -> Gf.Fragment.name d
                | None -> "outside")
                Classify.Landscape.pp_status
                c.evidence.Classify.Landscape.status)
        report.Omq.Corpus.results
  in
  let render_eval json q report =
    let boolean = Query.Ucq.is_boolean q in
    let json_answers answers =
      J.Arr
        (List.map
           (fun t -> J.Arr (List.map (fun e -> J.Str (element_name e)) t))
           answers)
    in
    if json then
      Fmt.pr "%s@."
        (J.render
           (J.Obj
              [
                ("task", J.Str "eval");
                ("boolean", J.Bool boolean);
                ("count", json_int (List.length report.Omq.Corpus.results));
                ( "items",
                  J.Arr
                    (List.map
                       (fun (r : Omq.Corpus.result_one) ->
                         J.Obj
                           (("name", J.Str r.item_name)
                            ::
                            (match r.outcome with
                            | Error f -> failure_fields f
                            | Ok (Omq.Corpus.Classified _) -> assert false
                            | Ok (Omq.Corpus.Evaluated e) ->
                                ("outcome", J.Str "ok")
                                :: ("consistent", J.Bool e.consistent)
                                ::
                                (if not e.consistent then []
                                 else if boolean then
                                   [ ("certain", J.Bool (e.answers <> [])) ]
                                 else
                                   [
                                     ( "answer_count",
                                       json_int (List.length e.answers) );
                                     ("answers", json_answers e.answers);
                                   ]))))
                       report.Omq.Corpus.results) );
              ]))
    else
      List.iter
        (fun (r : Omq.Corpus.result_one) ->
          match r.outcome with
          | Error f ->
              Fmt.pr "%-14s %a@." r.item_name Reasoner.Budget.pp_reason f.reason
          | Ok (Omq.Corpus.Classified _) -> assert false
          | Ok (Omq.Corpus.Evaluated e) ->
              if not e.consistent then Fmt.pr "%-14s inconsistent@." r.item_name
              else if boolean then
                Fmt.pr "%-14s certain=%b@." r.item_name (e.answers <> [])
              else
                Fmt.pr "%-14s %d answer(s)@." r.item_name
                  (List.length e.answers))
        report.Omq.Corpus.results
  in
  let run dir seed n jobs classify eval_q data max_extra stats (c : common) =
    run_result @@ fun () ->
    with_tracing c @@ fun () ->
    let items () =
      match dir with
      | Some d -> Omq.Corpus.load_dir d
      | None -> Ok (Omq.Corpus.generate ~seed ~n ())
    in
    match (classify, eval_q) with
    | true, Some _ -> Error "--classify and --eval are mutually exclusive"
    | false, Some qtext ->
        let* data_path =
          match data with
          | Some d -> Ok d
          | None -> Error "--eval requires --data FILE"
        in
        let* q = load_query qtext in
        let* d = load_instance data_path in
        let* items = items () in
        let report =
          Omq.Corpus.run ?timeout:c.timeout ?fuel:c.fuel
            ?max_clauses:c.max_clauses ~jobs
            (Omq.Corpus.Eval { query = q; data = d; max_extra })
            items
        in
        render_eval c.json q report;
        summary stats report;
        Ok (exit_of report)
    | true, None | false, None when classify || dir <> None ->
        let* items = items () in
        let report =
          Omq.Corpus.run ?timeout:c.timeout ?fuel:c.fuel
            ?max_clauses:c.max_clauses ~jobs Omq.Corpus.Classify items
        in
        render_classify c.json report;
        summary stats report;
        Ok (exit_of report)
    | _ ->
        (* Legacy default: the Section 1 table over the synthetic corpus,
           analyzed on the pool (submission-order tabulation keeps the
           table identical at every --jobs). *)
        let corpus = Array.of_list (Bioportal.Generate.corpus ~seed ~n ()) in
        let reports =
          Parallel.Pool.with_pool ~jobs (fun pool ->
              Parallel.Pool.map pool Bioportal.Analyze.analyze corpus)
        in
        let table = Bioportal.Analyze.tabulate (Array.to_list reports) in
        Fmt.pr "%a@." Bioportal.Analyze.pp_table table;
        let pt, pf, pq = Bioportal.Analyze.paper_reference in
        Fmt.pr
          "paper reference: %d total, %d in ALCHIF depth 2, %d in ALCHIQ depth 1@."
          pt pf pq;
        Ok 0
  in
  Cmd.v
    (Cmd.info "corpus" ~exits
       ~doc:
         "Batch-process a corpus of ontologies on $(b,--jobs) worker domains: \
          $(b,--classify) locates each in the Figure 1 landscape, $(b,--eval) \
          answers a UCQ over $(b,--data) w.r.t. each; with neither, prints \
          the Section 1 table of the synthetic BioPortal corpus. Per-item \
          verdicts go to stdout in submission order (bit-identical for every \
          job count); timings and counters go to stderr.")
    Term.(
      const run $ dir_arg $ seed_arg $ n_arg $ jobs_arg $ classify_flag
      $ eval_arg $ data_arg $ bound_arg $ stats_arg $ common_term)

let decide_cmd =
  let out_arg =
    Arg.(
      value & opt int 5
      & info [ "max-outdegree" ] ~doc:"Bouquet outdegree bound.")
  in
  let run path max_outdegree (c : common) =
    run_result @@ fun () ->
    with_tracing c @@ fun () ->
    let* tbox = load_tbox path in
    let o = Dl.Translate.tbox tbox in
    let budget = budget_of c in
    let report = function
      | Classify.Decide.Ptime_evidence n ->
          if c.json then print_response (P.Decided { verdict = `Ptime n })
          else Fmt.pr "PTIME query evaluation (evidence from %d bouquets)@." n;
          Ok 0
      | Classify.Decide.Conp_hard w ->
          let witness =
            String.concat " "
              (String.split_on_char '\n' (Fmt.str "%a" Structure.Instance.pp w))
          in
          if c.json then
            print_response (P.Decided { verdict = `Conp_hard witness })
          else
            Fmt.pr "coNP-hard; non-materializable bouquet:@.%a@."
              Structure.Instance.pp w;
          Ok 0
    in
    let partial reason checked =
      if c.json then print_response (P.Decide_partial { reason; checked })
      else
        Fmt.pr "%a: %d bouquet(s) checked before exhaustion (all PTIME so far)@."
          Reasoner.Budget.pp_reason reason checked;
      Ok (reason_code reason)
    in
    match Classify.Decide.try_decide budget ~max_outdegree o with
    | `Ok verdict -> report verdict
    | `Timeout checked -> partial Reasoner.Budget.Timeout checked
    | `Out_of_fuel checked -> partial Reasoner.Budget.Fuel checked
  in
  Cmd.v
    (Cmd.info "decide" ~exits
       ~doc:
         "Decide PTIME query evaluation by bouquet materializability \
          (Theorem 13). With $(b,--timeout), $(b,--fuel) or \
          $(b,--max-clauses) a tripped budget reports the bouquets checked \
          so far and exits 124 or 125.")
    Term.(const run $ ontology_arg $ out_arg $ common_term)

(* ------------------------------------------------------------------ *)
(* serve / request: the daemon and its scripting client. *)

let socket_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH"
        ~doc:
          "Unix domain socket path (default $(b,omq.sock) when $(b,--port) \
           is not given).")

let host_arg =
  Arg.(
    value & opt string "127.0.0.1"
    & info [ "host" ] ~docv:"HOST" ~doc:"Host for $(b,--port).")

let port_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "port" ] ~docv:"PORT"
        ~doc:"TCP port to use instead of a Unix socket.")

let addr_of socket host port =
  match (socket, port) with
  | Some _, Some _ -> Error "--socket and --port are mutually exclusive"
  | Some s, None -> Ok (Omqd.Daemon.Unix_path s)
  | None, Some p -> Ok (Omqd.Daemon.Tcp (host, p))
  | None, None -> Ok (Omqd.Daemon.Unix_path "omq.sock")

(* HOST:PORT (last colon splits, so the HOST may not be an IPv6
   literal) is TCP; anything else is a Unix socket path. *)
let parse_listen_addr s =
  match String.rindex_opt s ':' with
  | Some i -> (
      match
        int_of_string_opt (String.sub s (i + 1) (String.length s - i - 1))
      with
      | Some p -> Omqd.Daemon.Tcp (String.sub s 0 i, p)
      | None -> Omqd.Daemon.Unix_path s)
  | None -> Omqd.Daemon.Unix_path s

let serve_cmd =
  let jobs_arg =
    Arg.(
      value & opt int 2
      & info [ "jobs"; "j" ] ~docv:"N"
          ~doc:
            "Worker domains. Sessions are pinned to a worker at open \
             (sticky routing), so one session's requests are always \
             serialised on one domain.")
  in
  let max_frame_arg =
    Arg.(
      value
      & opt int Omqd.Daemon.default_max_frame
      & info [ "max-frame" ] ~docv:"BYTES"
          ~doc:
            "Reject request frames longer than $(docv) with a typed \
             frame_too_large error (the connection stays usable).")
  in
  let journal_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "journal" ] ~docv:"DIR"
          ~doc:
            "Journal directory. Every acknowledged open/insert/close is \
             appended to $(docv)/omq.journal and fsync'd before the \
             response is sent; on startup the journal is replayed, so a \
             killed-and-restarted daemon resurrects every live session \
             with identical certain answers.")
  in
  let journal_compact_arg =
    Arg.(
      value
      & opt int Omqd.Daemon.default_journal_compact
      & info [ "journal-compact" ] ~docv:"BYTES"
          ~doc:
            "Compact the journal (one open per live session) once it \
             exceeds $(docv) bytes; 0 disables compaction.")
  in
  let supervise_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "supervise" ] ~docv:"SECONDS"
          ~doc:
            "Quarantine a worker domain whose current job has run longer \
             than $(docv): its in-flight requests fail with the retryable \
             worker_lost error, a fresh domain is spawned, and its \
             sessions are replayed.")
  in
  let max_inflight_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-inflight" ] ~docv:"N"
          ~doc:
            "Shed requests with the retryable overloaded error while \
             $(docv) jobs are already in flight.")
  in
  let max_outbuf_arg =
    Arg.(
      value
      & opt int Omqd.Daemon.default_max_outbuf
      & info [ "max-outbuf" ] ~docv:"BYTES"
          ~doc:
            "Disconnect a client whose unsent responses exceed $(docv) \
             bytes (a reader that stopped reading).")
  in
  let metrics_addr_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics-addr" ] ~docv:"ADDR"
          ~doc:
            "Serve Prometheus text exposition on $(b,GET /metrics) (and \
             the live telemetry dump on $(b,GET /telemetry)) at $(docv): \
             HOST:PORT for TCP, any other string as a Unix socket path. \
             Plain HTTP/1.0 on the daemon's own select loop.")
  in
  let log_format_arg =
    Arg.(
      value
      & opt (enum [ ("text", Obs.Log.Text); ("json", Obs.Log.Json) ]) Obs.Log.Text
      & info [ "log-format" ] ~docv:"FMT"
          ~doc:
            "Log record format on stderr: $(b,text) or $(b,json) (one \
             object per line, machine-parseable).")
  in
  let log_level_arg =
    Arg.(
      value & opt string "info"
      & info [ "log-level" ] ~docv:"LEVEL"
          ~doc:"Minimum log level: debug, info, warn or error.")
  in
  let flight_dump_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "flight-dump" ] ~docv:"PATH"
          ~doc:
            "Write the SIGUSR1 telemetry dump (flight-recorder ring, \
             per-worker rows, latency quantiles) to $(docv); without it \
             the dump is one JSON line on stderr.")
  in
  let no_telemetry_arg =
    Arg.(
      value & flag
      & info [ "no-telemetry" ]
          ~doc:
            "Disable the flight recorder, the request-latency histogram \
             and per-request GC sampling (leaves one load+branch per \
             completion).")
  in
  let flight_capacity_arg =
    Arg.(
      value
      & opt int Omqd.Telemetry.default_capacity
      & info [ "flight-capacity" ] ~docv:"N"
          ~doc:"Flight-recorder ring capacity (completed request spans).")
  in
  let run socket host port jobs max_frame journal journal_compact supervise
      max_inflight max_outbuf metrics_addr log_format log_level flight_dump
      no_telemetry flight_capacity (c : common) =
    run_result @@ fun () ->
    let* addr = addr_of socket host port in
    let* level =
      match Obs.Log.level_of_string log_level with
      | Some l -> Ok l
      | None -> Error (Printf.sprintf "unknown log level %S" log_level)
    in
    Obs.Log.set_level level;
    Obs.Log.set_format log_format;
    let cfg =
      Omqd.Daemon.config ~addr ~jobs
        ~caps:
          {
            P.timeout_s = c.timeout;
            fuel = c.fuel;
            max_clauses = c.max_clauses;
          }
        ~max_frame
        ?trace:(Option.map (fun path -> (c.trace_format, path)) c.trace)
        ~log:true ?journal ~journal_compact ?supervise ?max_inflight
        ~max_outbuf ~signals:true
        ?metrics_addr:(Option.map parse_listen_addr metrics_addr)
        ~telemetry:(not no_telemetry) ?flight_dump ~flight_capacity ()
    in
    let* () = Omqd.Daemon.run cfg in
    Ok 0
  in
  Cmd.v
    (Cmd.info "serve" ~exits
       ~doc:
         "Serve the Omq.Protocol wire API (newline-delimited JSON frames) \
          on a Unix or TCP socket until a shutdown request, SIGTERM or \
          SIGINT (both drain gracefully). Budget flags \
          ($(b,--timeout)/$(b,--fuel)/$(b,--max-clauses)) become \
          per-request admission caps: a request asking for more is clamped, \
          a tripped budget degrades that one request to a typed partial \
          response and the daemon keeps serving. Sessions are updatable in \
          place: $(b,insert_facts)/$(b,retract_facts) maintain the answer \
          set by delta rules and incremental solver calls instead of \
          reopening. With $(b,--journal) the \
          daemon is crash-recoverable (journal-before-ack); with \
          $(b,--supervise) wedged worker domains are quarantined and \
          their sessions replayed. With $(b,--metrics-addr) the daemon \
          also answers Prometheus scrapes; $(b,omq_tool top) renders the \
          same telemetry live.")
    Term.(
      const run $ socket_arg $ host_arg $ port_arg $ jobs_arg $ max_frame_arg
      $ journal_arg $ journal_compact_arg $ supervise_arg $ max_inflight_arg
      $ max_outbuf_arg $ metrics_addr_arg $ log_format_arg $ log_level_arg
      $ flight_dump_arg $ no_telemetry_arg $ flight_capacity_arg
      $ common_term)

let request_cmd =
  let frames_arg =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"FRAME"
          ~doc:
            "Request frames to send, one JSON object per argument; when \
             none is given, frames are read from stdin (one per line). \
             Frames are sent verbatim — including malformed ones, which \
             makes this the protocol's conformance probe.")
  in
  let run socket host port frames =
    run_result @@ fun () ->
    let* addr = addr_of socket host port in
    let* client = Omqd.Client.connect addr in
    let send line =
      let* resp = Omqd.Client.raw client line in
      Fmt.pr "%s@." resp;
      Ok ()
    in
    let rec send_all = function
      | [] -> Ok ()
      | l :: ls ->
          if String.trim l = "" then send_all ls
          else
            let* () = send l in
            send_all ls
    in
    let result =
      match frames with
      | [] ->
          let rec from_stdin () =
            match input_line stdin with
            | line ->
                let* () = if String.trim line = "" then Ok () else send line in
                from_stdin ()
            | exception End_of_file -> Ok ()
          in
          from_stdin ()
      | ls -> send_all ls
    in
    Omqd.Client.close client;
    let* () = result in
    Ok 0
  in
  Cmd.v
    (Cmd.info "request" ~exits
       ~doc:
         "Send raw Omq.Protocol frames to a running $(b,serve) daemon and \
          print each response line on stdout. Frames come from the command \
          line or stdin and are sent verbatim, so malformed input exercises \
          the server's typed error responses.")
    Term.(const run $ socket_arg $ host_arg $ port_arg $ frames_arg)

let loadgen_cmd =
  let ontology_arg =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"ONTOLOGY" ~doc:"Ontology file (one axiom per line).")
  in
  let data_arg =
    Arg.(
      required
      & pos 1 (some file) None
      & info [] ~docv:"DATA" ~doc:"Instance file (one fact per line).")
  in
  let query_arg =
    Arg.(
      required
      & pos 2 (some string) None
      & info [] ~docv:"QUERY" ~doc:"UCQ, e.g. 'q(x) <- Thumb(x)'.")
  in
  let clients_arg =
    Arg.(
      value & opt int 4
      & info [ "clients" ] ~docv:"N" ~doc:"Concurrent closed-loop clients.")
  in
  let queries_arg =
    Arg.(
      value & opt int 50
      & info [ "queries" ] ~docv:"M" ~doc:"Evals per client.")
  in
  let bound_arg =
    Arg.(
      value & opt int 2 & info [ "max-extra" ] ~doc:"Countermodel domain bound.")
  in
  let run socket host port ontology data query clients queries max_extra
      (c : common) =
    run_result @@ fun () ->
    let* addr = addr_of socket host port in
    let* ontology = read_file ontology in
    let* data = read_file data in
    let spec =
      {
        Omqd.Loadgen.open_req = P.Open_session { ontology; data; query; max_extra };
        make_eval =
          (fun ~session ->
            P.Eval { session; budget = P.no_budget; want_stats = false });
        expected = None;
      }
    in
    let* s = Omqd.Loadgen.run addr (List.init (max clients 1) (fun _ -> spec)) ~queries in
    if c.json then
      print_endline
        (J.render
           (J.Obj
              [
                ("clients", json_int s.Omqd.Loadgen.clients);
                ("queries_per_client", json_int s.queries_per_client);
                ("total", json_int s.total);
                ("ok", json_int s.ok);
                ("tripped", json_int s.tripped);
                ("errors", json_int s.errors);
                ("mismatches", json_int s.mismatches);
                ("connect_failures", json_int s.connect_failures);
                ("io_failures", json_int s.io_failures);
                ("seconds", J.Num s.seconds);
                ("throughput_rps", J.Num s.throughput_rps);
                ("p50_ms", J.Num s.p50_ms);
                ("p99_ms", J.Num s.p99_ms);
              ]))
    else Fmt.pr "%a@." Omqd.Loadgen.pp_summary s;
    Ok 0
  in
  Cmd.v
    (Cmd.info "loadgen" ~exits
       ~doc:
         "Drive closed-loop eval load against a running $(b,serve) daemon: \
          N clients each open a session and issue M evals back to back. \
          Per-client connect/IO failures are counted, not fatal — killing \
          the daemon mid-run still exits 0 with the degradation visible in \
          the summary, which is what the chaos-smoke CI job measures.")
    Term.(
      const run $ socket_arg $ host_arg $ port_arg $ ontology_arg $ data_arg
      $ query_arg $ clients_arg $ queries_arg $ bound_arg $ common_term)

(* ------------------------------------------------------------------ *)
(* top: live per-worker view of a running daemon. Polls stats +
   dump_telemetry over the ordinary wire protocol — no metrics
   endpoint needed — and derives rps from the served delta between
   polls. *)

let top_cmd =
  let interval_arg =
    Arg.(
      value & opt float 2.0
      & info [ "interval"; "n" ] ~docv:"SECONDS"
          ~doc:"Seconds between polls (clamped to >= 0.1).")
  in
  let iterations_arg =
    Arg.(
      value & opt int 0
      & info [ "iterations" ] ~docv:"N"
          ~doc:"Stop after $(docv) frames; 0 polls until interrupted.")
  in
  let once_arg =
    Arg.(
      value & flag
      & info [ "once" ]
          ~doc:"Print a single frame and exit (no screen clearing).")
  in
  let jnum ?(default = Float.nan) name j =
    match J.member name j with Some (J.Num n) -> n | _ -> default
  in
  let jint name j =
    match J.member name j with Some (J.Num n) -> int_of_float n | _ -> 0
  in
  let fmt_ms v = if Float.is_nan v then "-" else Printf.sprintf "%.2f" v in
  let fmt_busy v =
    if Float.is_nan v then "idle" else Printf.sprintf "%.3fs" v
  in
  let render_frame ~clear ~rps stats telemetry =
    let buf = Buffer.create 1024 in
    let pr fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
    (match stats with
    | P.Server_stats s ->
        pr "omq_tool top — daemon %s — up %.1fs\n"
          (if s.server_version = "" then "(pre-telemetry)"
           else "v" ^ s.server_version)
          s.uptime_s;
        pr
          "served %d (%s)  errors %d  inflight %d  sessions %d  journal %d \
           B / %d entries\n"
          s.served
          (match rps with
          | Some r -> Printf.sprintf "%.1f rps" r
          | None -> "rps: warming up")
          s.errors s.inflight s.sessions s.journal_bytes s.journal_entries;
        let named prefix =
          match s.counters with
          | J.Obj ms ->
              List.filter_map
                (fun (k, v) ->
                  match v with
                  | J.Num n
                    when String.length k >= String.length prefix
                         && String.sub k 0 (String.length prefix) = prefix ->
                      Some
                        (Printf.sprintf "%s=%d"
                           (String.sub k (String.length prefix)
                              (String.length k - String.length prefix))
                           (int_of_float n))
                  | _ -> None)
                ms
          | _ -> []
        in
        let line label prefix =
          match named prefix with
          | [] -> ()
          | xs -> pr "%s: %s\n" label (String.concat "  " xs)
        in
        line "supervision" "serve.supervision."
    | _ -> pr "omq_tool top — stats unavailable\n");
    (match telemetry with
    | Some (P.Telemetry { telemetry = t }) ->
        pr "latency ms: p50 %s  p95 %s  p99 %s    flight %d spans (%d \
            dropped)\n"
          (fmt_ms (jnum "p50_ms" t))
          (fmt_ms (jnum "p95_ms" t))
          (fmt_ms (jnum "p99_ms" t))
          (jint "flight_total" t) (jint "flight_dropped" t);
        (match J.member "workers" t with
        | Some (J.Arr rows) when rows <> [] ->
            pr "%6s  %8s  %8s  %9s  %14s  %9s\n" "worker" "sessions"
              "requests" "busy" "major_words" "minor_gcs";
            List.iter
              (fun row ->
                pr "%6d  %8d  %8d  %9s  %14.0f  %9d\n" (jint "domain" row)
                  (jint "sessions" row) (jint "requests" row)
                  (fmt_busy (jnum "busy_s" row))
                  (jnum ~default:0.0 "gc_major_words" row)
                  (jint "gc_minor_collections" row))
              rows
        | _ -> ())
    | Some _ | None -> pr "telemetry: unavailable (daemon too old?)\n");
    if clear then print_string "\027[H\027[2J";
    print_string (Buffer.contents buf);
    flush stdout
  in
  let run socket host port interval iterations once =
    run_result @@ fun () ->
    let* addr = addr_of socket host port in
    let* client = Omqd.Client.connect addr in
    let interval = Float.max 0.1 interval in
    let frames = if once then 1 else iterations in
    let clear = (not once) && Unix.isatty Unix.stdout in
    let prev = ref None in
    let rec poll i =
      if frames > 0 && i >= frames then Ok 0
      else
        let* stats = Omqd.Client.call client P.Stats in
        let telemetry =
          match Omqd.Client.call client P.Dump_telemetry with
          | Ok (P.Telemetry _ as t) -> Some t
          | Ok _ | Error _ -> None
        in
        let now = Obs.Clock.now () in
        let rps =
          match (stats, !prev) with
          | P.Server_stats s, Some (served0, t0) when now > t0 ->
              Some (float_of_int (s.served - served0) /. (now -. t0))
          | _ -> None
        in
        (match stats with
        | P.Server_stats s -> prev := Some (s.served, now)
        | _ -> ());
        render_frame ~clear ~rps stats telemetry;
        if frames > 0 && i + 1 >= frames then Ok 0
        else begin
          Unix.sleepf interval;
          poll (i + 1)
        end
    in
    let result = poll 0 in
    Omqd.Client.close client;
    result
  in
  Cmd.v
    (Cmd.info "top" ~exits
       ~doc:
         "Live view of a running $(b,serve) daemon: polls $(b,stats) and \
          $(b,dump_telemetry) over the wire protocol and renders uptime, \
          throughput (derived from the served delta between polls), \
          latency quantiles, supervision counters and a per-worker \
          table (sessions, requests, busy time, GC). Use $(b,--once) for \
          a single machine-greppable frame.")
    Term.(
      const run $ socket_arg $ host_arg $ port_arg $ interval_arg
      $ iterations_arg $ once_arg)

let () =
  let doc = "Ontology-mediated querying with the guarded fragment (PODS'17 reproduction)." in
  let cmd =
    Cmd.group (Cmd.info "omq_tool" ~version:"1.0" ~doc ~exits)
      [
        classify_cmd;
        eval_cmd;
        gen_cmd;
        fig1_cmd;
        corpus_cmd;
        decide_cmd;
        serve_cmd;
        request_cmd;
        loadgen_cmd;
        top_cmd;
      ]
  in
  (* Map exits ourselves: cmdliner's defaults (cli_error = 124,
     internal_error = 125) collide with the budget-trip codes. *)
  exit
    (match Cmd.eval_value cmd with
    | Ok (`Ok code) -> code
    | Ok (`Version | `Help) -> 0
    | Error (`Parse | `Term) -> exit_cli_misuse
    | Error `Exn -> exit_internal)
