(* The public façade: ontology-mediated queries (O, q) and the analyses
   the paper develops for them. Examples and the command-line tool only
   use this module.

   Evaluation runs on the incremental Reasoner.Engine: a session holds
   the one engine of (O, D), which grounds once, at the session's
   ceiling, and answers every tuple at every bound by assumption
   solving, so asking for all certain answers of an n-ary query costs
   one grounding instead of |dom|^n of them.

   Every evaluation entry accepts a [?budget]; Session.evaluate, the
   one verdict the CLI, the daemon and the corpus serve, returns a
   typed outcome instead of raising, and degrades to the tuples
   certified so far plus the first undecided candidate as a resumption
   hint. *)

module Protocol = Protocol

type t = {
  ontology : Logic.Ontology.t;
  query : Query.Ucq.t;
}

let make ontology query = { ontology; query }
let of_cq ontology cq = { ontology; query = Query.Ucq.of_cq cq }

let of_tbox tbox query = { ontology = Dl.Translate.tbox tbox; query }

(* ------------------------------------------------------------------ *)
(* Sessions                                                             *)
(* ------------------------------------------------------------------ *)

type session = {
  omq : t;
  max_extra : int;
  (* the one engine of (O, D): it grounds once, over dom(D) plus
     max_extra nulls, on first use; updatable sessions hold
     a dynamic engine (facts as solver assumptions) so insert_facts /
     retract_facts can delta-maintain it instead of reopening *)
  engine : Reasoner.Engine.t;
  (* budget trips of this session's evaluations (only the two trip
     counters are used); shared by the delta-updated sessions derived
     from this one, fresh on a reopen *)
  trips : Reasoner.Stats.t;
}

let open_session ?(max_extra = Reasoner.Problem.default_max_extra)
    ?(updatable = false) omq d =
  {
    omq;
    max_extra;
    engine =
      Reasoner.Engine.create
        ~extra_signature:(Query.Ucq.signature omq.query)
        ~dynamic:updatable omq.ontology d;
    trips = Reasoner.Stats.create ();
  }

type evaluation = { consistent : bool; answers : Structure.Element.t list list }

type partial = {
  certified : Structure.Element.t list list;
  resume_from : Structure.Element.t list option;
}

module Session = struct
  type t = session

  let instance s = Reasoner.Engine.instance s.engine
  let updatable s = Reasoner.Engine.is_dynamic s.engine

  (* O,D ⊨ q(ā): no countermodel at any bound 0..max_extra, which the
     engine decides in one solve across the bounds. *)
  let certain ?budget s tuple =
    Obs.Trace.with_span "omq.certain" @@ fun () ->
    if Obs.Trace.enabled () then
      Obs.Trace.add_attr "tuple"
        (Obs.Trace.Str
           (String.concat "," (List.map Structure.Element.to_string tuple)));
    let r =
      Reasoner.Engine.certain_ucq ?budget ~max_extra:s.max_extra s.engine
        s.omq.query tuple
    in
    if Obs.Trace.enabled () then
      Obs.Trace.add_attr "certain" (Obs.Trace.Bool r);
    r

  let is_consistent ?budget s =
    Reasoner.Engine.is_consistent ?budget ~max_extra:s.max_extra s.engine

  (* Candidate tuples over the active domain, lazily. *)
  let candidates s =
    let dom = Structure.Instance.domain_list (instance s) in
    let rec tuples k =
      if k = 0 then Seq.return []
      else
        Seq.concat_map
          (fun rest -> Seq.map (fun e -> e :: rest) (List.to_seq dom))
          (tuples (k - 1))
    in
    tuples (Query.Ucq.arity s.omq.query)

  let certain_answers_seq ?budget s =
    Seq.filter (certain ?budget s) (candidates s)

  (* Boolean queries short-circuit on their single candidate; n-ary
     queries stream, never materializing the |dom|^n candidate list. *)
  let certain_answers ?budget s =
    Obs.Trace.with_span
      ~attrs:[ ("op", Obs.Trace.Str "certain_answers") ]
      "omq.query"
    @@ fun () ->
    let answers =
      if Query.Ucq.is_boolean s.omq.query then
        if certain ?budget s [] then [ [] ] else []
      else List.of_seq (certain_answers_seq ?budget s)
    in
    if Obs.Trace.enabled () then
      Obs.Trace.add_attr "answers" (Obs.Trace.Int (List.length answers));
    answers

  (* The verdict on D: consistency first, then every candidate in
     order. A trip reports the tuples already certified and the first
     candidate not yet decided (the tuple in flight, or the first of
     all when consistency was still being checked) and is counted once
     into the session. The root span opens OUTSIDE Budget.protect: when
     a trip unwinds, the inner spans close with the classifier label
     and protect's handler stamps the trip status on this still-open
     root, so a budget-tripped trace exports with a closed, labelled
     root. *)
  let evaluate budget s =
    Obs.Trace.with_span ~attrs:[ ("op", Obs.Trace.Str "evaluate") ] "omq.query"
    @@ fun () ->
    let certified = ref [] in
    let cursor = ref (candidates s) in
    let partial () =
      {
        certified = List.rev !certified;
        resume_from = Option.map fst (Seq.uncons !cursor);
      }
    in
    let o =
      Reasoner.Budget.protect budget ~partial (fun () ->
          if not (is_consistent ~budget s) then { consistent = false; answers = [] }
          else begin
            let rec go () =
              match !cursor () with
              | Seq.Nil -> ()
              | Seq.Cons (tuple, rest) ->
                  if certain ~budget s tuple then certified := tuple :: !certified;
                  cursor := rest;
                  go ()
            in
            go ();
            { consistent = true; answers = List.rev !certified }
          end)
    in
    (match Reasoner.Budget.outcome_reason o with
    | Some Reasoner.Budget.Timeout ->
        s.trips.Reasoner.Stats.budget_timeouts <-
          s.trips.Reasoner.Stats.budget_timeouts + 1
    | Some Reasoner.Budget.Fuel ->
        s.trips.Reasoner.Stats.budget_fuel_trips <-
          s.trips.Reasoner.Stats.budget_fuel_trips + 1
    | None -> ());
    o

  (* The work of this session's engine, plus its budget trips. *)
  let stats s =
    let acc = Reasoner.Stats.copy s.trips in
    Reasoner.Stats.add ~into:acc (Reasoner.Engine.stats s.engine);
    acc

  (* ---------------------------------------------------------------- *)
  (* Updates                                                            *)
  (* ---------------------------------------------------------------- *)

  let reopen s d =
    open_session ~max_extra:s.max_extra ~updatable:(updatable s) s.omq d

  (* Delta-update the engine (its grounding); if it needs
     a rebuild (static engine, new domain element, vacated domain
     element) fall back to reopening the session on the updated
     instance. A refused delta leaves the engine untouched, so all
     bounds keep answering over the same D. *)
  let insert_facts ?budget:_ s facts =
    if Reasoner.Engine.insert_facts s.engine facts = `Delta then
      (s, `Delta)
    else
      ( reopen s
          (List.fold_left
             (fun i f -> Structure.Instance.add_fact f i)
             (instance s) facts),
        `Reopen )

  (* Updates do no budgeted work. *)
  let retract_facts ?budget:_ s facts =
    if Reasoner.Engine.retract_facts s.engine facts = `Delta then (s, `Delta)
    else
      ( reopen s
          (List.fold_left
             (fun i f -> Structure.Instance.remove_fact f i)
             (instance s) facts),
        `Reopen )
end

(* ------------------------------------------------------------------ *)
(* Semantics                                                            *)
(* ------------------------------------------------------------------ *)

(* All certain answers over the active domain, in a fresh session. *)
let certain_answers ?budget ?max_extra omq d =
  Session.certain_answers ?budget (open_session ?max_extra omq d)

(* The answering stack keeps no cache across sessions: each engine
   grounds its own (O, D) once. Kept as a no-op for callers written
   when the grounder had a cross-session memo. *)
let clear_caches () = ()

(* ------------------------------------------------------------------ *)
(* Front ends: the CLI, the daemon and the corpus parse, classify and  *)
(* render verdicts here, so each wire field is written once.            *)
(* ------------------------------------------------------------------ *)

(* Parse errors read [source:line: message] ([source:line:col:] for
   lexical ones), with the file path or the wire field as the source. *)
let parse_tbox ~source text =
  try Ok (Dl.Parser.parse_tbox text) with
  | Dl.Parser.Parse_error { line; message } ->
      Error (Printf.sprintf "%s:%d: %s" source line message)
  | Dl.Lexer.Lex_error { line; col; message } ->
      Error (Printf.sprintf "%s:%d:%d: %s" source line col message)

let parse_instance ~source text =
  try Ok (Structure.Parse.instance_of_string text)
  with Structure.Parse.Parse_error { line; message } ->
    Error (Printf.sprintf "%s:%d: %s" source line message)

let parse_query ~source text =
  try Ok (Query.Parse.ucq_of_string text)
  with Query.Parse.Parse_error m -> Error (Printf.sprintf "%s: %s" source m)

let classification tbox =
  let ev = Classify.Landscape.of_tbox tbox in
  {
    Protocol.dl_name = Dl.Tbox.name tbox;
    depth = Dl.Tbox.depth tbox;
    fragment =
      Option.map Gf.Fragment.name
        (Gf.Fragment.of_ontology (Dl.Translate.tbox tbox));
    status = Fmt.str "%a" Classify.Landscape.pp_status ev.Classify.Landscape.status;
    evidence_fragment = ev.Classify.Landscape.fragment;
    source = ev.Classify.Landscape.source;
  }

let classify_response tbox = Protocol.Classified (classification tbox)

let eval_response ~boolean ?stats outcome =
  let tuple = List.map (Fmt.str "%a" Structure.Element.pp) in
  let names = List.map tuple in
  let partial reason p =
    Protocol.Partial
      {
        reason;
        certified = names p.certified;
        resume_from = Option.map tuple p.resume_from;
        stats;
      }
  in
  match outcome with
  | `Ok e ->
      Protocol.Evaled
        {
          result =
            { consistent = e.consistent; boolean; tuples = names e.answers };
          stats;
        }
  | `Timeout p -> partial Reasoner.Budget.Timeout p
  | `Out_of_fuel p -> partial Reasoner.Budget.Fuel p

(* ------------------------------------------------------------------ *)
(* Analyses                                                             *)
(* ------------------------------------------------------------------ *)

(* Figure 1 classification of the ontology's minimal fragment. *)
let classify omq = Classify.Landscape.of_ontology omq.ontology

(* The minimal uGF/uGC2 fragment descriptor, if any. *)
let fragment omq = Gf.Fragment.of_ontology omq.ontology

(* Materializability of the ontology on a concrete instance. *)
let materializable_on ?budget ?max_model_extra ?max_extra omq d =
  Material.Materializability.materializable_on ?budget ?max_model_extra
    ?max_extra
    (Reasoner.Engine.create omq.ontology d)

(* The Theorem 5 type-based evaluation (binary signatures). The
   procedure's applicability failures surface as typed errors, not
   exceptions. *)
let rewritten_certain ?budget ?extra omq d tuple =
  match omq.query.Query.Ucq.disjuncts with
  | [ cq ] -> (
      match Rewriting.Typeprog.entails ?budget ?extra omq.ontology cq d tuple with
      | b -> Ok b
      | exception Rewriting.Typeprog.Not_two_variable msg ->
          Error (`Not_two_variable msg)
      | exception Rewriting.Typeprog.Too_many_types limit ->
          Error (`Too_many_types limit))
  | _ -> Error `Not_single_cq

(* ------------------------------------------------------------------ *)
(* The corpus runner                                                    *)
(* ------------------------------------------------------------------ *)

(* Batch classification / evaluation of many ontologies on a
   Parallel.Pool — the paper's own workload shape (411 BioPortal
   ontologies) rather than one session at a time. Corpus items are
   independent, so the fan-out is shared-nothing: each item grounds
   and counts its work in its own session's engine, and the only
   cross-domain artifacts are the per-item results (those stats
   included), assembled in submission order. That assembly (plus
   per-item budgets and traces) is what makes [--jobs n] output
   bit-identical to [--jobs 1]. *)
module Corpus = struct
  type item = { name : string; tbox : Dl.Tbox.t }

  let generate ?(seed = 2017) ~n () =
    List.mapi
      (fun i tbox -> { name = Printf.sprintf "gen%d-%03d" seed i; tbox })
      (Bioportal.Generate.corpus ~seed ~n ())

  let load_file path =
    match In_channel.with_open_bin path In_channel.input_all with
    | text -> parse_tbox ~source:path text
    | exception Sys_error m -> Error m

  (* Items sorted by file name: directory enumeration order is
     filesystem-dependent, and the corpus order is part of the
     deterministic output contract. *)
  let load_dir dir =
    match Sys.readdir dir with
    | exception Sys_error m -> Error m
    | names ->
        let files =
          Array.to_list names
          |> List.filter (fun f -> Filename.check_suffix f ".dl")
          |> List.sort compare
        in
        if files = [] then Error (dir ^ ": no .dl ontology files")
        else
          let rec go acc = function
            | [] -> Ok (List.rev acc)
            | f :: rest -> (
                match load_file (Filename.concat dir f) with
                | Ok tbox ->
                    go ({ name = Filename.chop_suffix f ".dl"; tbox } :: acc)
                      rest
                | Error m -> Error m)
          in
          go [] files

  type task =
    | Classify
    | Eval of {
        query : Query.Ucq.t;
        data : Structure.Instance.t;
        max_extra : int;
      }

  type nonrec evaluation = evaluation = {
    consistent : bool;
    answers : Structure.Element.t list list;
  }

  type verdict = Classified of Protocol.classification | Evaluated of evaluation

  (* A budget trip on one item degrades that item alone — the pool keeps
     running its siblings; [certified] is what the item had proven
     before the trip (time-dependent, so callers must keep it out of
     deterministic output). *)
  type failure = {
    reason : Reasoner.Budget.reason;
    certified : Structure.Element.t list list;
  }

  type outcome = (verdict, failure) result

  type result_one = {
    item_name : string;
    outcome : outcome;
    seconds : float;  (* wall time of this item, on its worker *)
    stats : Reasoner.Stats.t;  (* the work of this item's session *)
    worker : int;  (* pool domain index that processed the item *)
  }

  type report = {
    results : result_one list;  (* submission order *)
    jobs : int;
    seconds : float;  (* wall time of the whole batch *)
    total : Reasoner.Stats.t;  (* per-item stats summed in order *)
  }

  (* The per-item budget is created at item start on the item's worker:
     wall-clock deadlines are relative to when the item begins running,
     not to batch submission, so a queue full of healthy items behind
     one slow one does not time out in bulk. *)
  let eval_item ~timeout ~fuel ~max_clauses ~query ~data ~max_extra item =
    let budget = Reasoner.Budget.create ?timeout ?fuel ?max_clauses () in
    let s = open_session ~max_extra (of_tbox item.tbox query) data in
    let outcome =
      match Session.evaluate budget s with
      | `Ok e -> Ok (Evaluated e)
      | `Timeout p -> Error { reason = Reasoner.Budget.Timeout; certified = p.certified }
      | `Out_of_fuel p -> Error { reason = Reasoner.Budget.Fuel; certified = p.certified }
    in
    (outcome, Session.stats s)

  let run ?timeout ?fuel ?max_clauses ?(jobs = 1) task items =
    Obs.Trace.with_span
      ~attrs:[ ("jobs", Obs.Trace.Int jobs); ("items", Obs.Trace.Int (List.length items)) ]
      "omq.corpus"
    @@ fun () ->
    let items_a = Array.of_list items in
    (* Capture tracing intent on the submitting domain: workers have no
       ambient collector of their own, so each traced item records into
       a private collector merged below, in submission order. *)
    let traced = Obs.Trace.enabled () in
    let process ~worker item =
      let run_one () =
        let (outcome, stats), seconds =
          Obs.Clock.timed (fun () ->
              match task with
              | Classify ->
                  (Ok (Classified (classification item.tbox)), Reasoner.Stats.create ())
              | Eval { query; data; max_extra } ->
                  eval_item ~timeout ~fuel ~max_clauses ~query ~data ~max_extra item)
        in
        { item_name = item.name; outcome; seconds; stats; worker }
      in
      if not traced then (run_one (), None)
      else
        let r, c =
          Obs.Trace.collect (fun () ->
              Obs.Trace.with_span
                ~attrs:[ ("item", Obs.Trace.Str item.name) ]
                "corpus.item" run_one)
        in
        (r, Some (worker, c))
    in
    let t0 = Obs.Clock.now () in
    let results =
      Parallel.Pool.with_pool ~jobs (fun pool ->
          Parallel.Pool.mapw pool process items_a)
    in
    let seconds = Obs.Clock.now () -. t0 in
    (match Obs.Trace.active () with
    | Some into ->
        Array.iter
          (function
            | _, Some (worker, c) ->
                Obs.Trace.absorb ~into
                  ~attrs:[ ("domain", Obs.Trace.Int worker) ]
                  c
            | _, None -> ())
          results
    | None -> ());
    let results = Array.to_list (Array.map fst results) in
    let total = Reasoner.Stats.create () in
    List.iter (fun r -> Reasoner.Stats.add ~into:total r.stats) results;
    { results; jobs; seconds; total }

  (* The most severe reason across items: timeouts win over fuel trips
     (mirrors the CLI exit-code convention 124 > 125 in urgency). *)
  let worst_failure report =
    List.fold_left
      (fun acc r ->
        match (acc, r.outcome) with
        | Some Reasoner.Budget.Timeout, _ -> acc
        | _, Error { reason = Reasoner.Budget.Timeout; _ } ->
            Some Reasoner.Budget.Timeout
        | None, Error { reason; _ } -> Some reason
        | acc, _ -> acc)
      None report.results
end
