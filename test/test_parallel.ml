(* The domain pool and the corpus runner built on it. The central
   property mirrors the pool's design: scheduling may do anything, but
   results are assembled in submission order, so every [jobs] count
   yields literally equal output — checked here both on the bare pool
   (with non-commutative folds and injected exceptions) and end-to-end
   on [Omq.Corpus] (qcheck: parallel classification/evaluation ≡
   sequential). Budget isolation: a per-item trip degrades that item
   alone and never poisons its siblings. *)

open Helpers
module Pool = Parallel.Pool
module Corpus = Omq.Corpus

let check = Alcotest.check

(* --------------------------------------------------------------- *)
(* The bare pool                                                    *)
(* --------------------------------------------------------------- *)

let test_map_order () =
  Pool.with_pool ~jobs:4 @@ fun pool ->
  let items = Array.init 100 Fun.id in
  let out = Pool.map pool (fun x -> x * x) items in
  check Alcotest.(array int) "squares in submission order"
    (Array.init 100 (fun i -> i * i))
    out

let test_jobs_clamped_and_inline () =
  check Alcotest.bool "default_jobs positive" true (Pool.default_jobs () >= 1);
  Pool.with_pool ~jobs:0 @@ fun pool ->
  check Alcotest.int "jobs clamped to 1" 1 (Pool.jobs pool);
  let out = Pool.map pool string_of_int (Array.init 5 Fun.id) in
  check
    Alcotest.(array string)
    "inline sequential batch"
    [| "0"; "1"; "2"; "3"; "4" |]
    out

(* An item that raises does not stop its siblings, and the re-raised
   exception is the lowest-indexed one — independent of schedule. *)
let test_exception_deterministic () =
  Pool.with_pool ~jobs:4 @@ fun pool ->
  let ran = Atomic.make 0 in
  let f x =
    Atomic.incr ran;
    if x mod 2 = 1 then failwith (string_of_int x) else x
  in
  (match Pool.map pool f (Array.init 20 Fun.id) with
  | _ -> Alcotest.fail "expected a failure"
  | exception Failure m -> check Alcotest.string "lowest index raised" "1" m);
  check Alcotest.int "every sibling still ran" 20 (Atomic.get ran)

let test_map_reduce_non_commutative () =
  let items = Array.init 26 (fun i -> String.make 1 (Char.chr (65 + i))) in
  let seq = Array.fold_left ( ^ ) "" items in
  Pool.with_pool ~jobs:3 @@ fun pool ->
  let par = Pool.map_reduce pool ~map:String.lowercase_ascii
      ~reduce:( ^ ) ~init:""
      items
  in
  check Alcotest.string "fold in submission order"
    (String.lowercase_ascii seq)
    par

(* Workers are reused across batches of one pool; a shut-down pool
   refuses new batches. *)
let test_batches_reuse_and_shutdown () =
  let pool = Pool.create ~jobs:3 () in
  for round = 1 to 5 do
    let out = Pool.map pool (fun x -> x + round) (Array.init 17 Fun.id) in
    check Alcotest.(array int) "round result"
      (Array.init 17 (fun i -> i + round))
      out
  done;
  Pool.shutdown pool;
  Pool.shutdown pool (* idempotent *);
  match Pool.map pool Fun.id [| 1 |] with
  | _ -> Alcotest.fail "expected Invalid_argument after shutdown"
  | exception Invalid_argument _ -> ()

(* --------------------------------------------------------------- *)
(* The corpus runner: parallel ≡ sequential                         *)
(* --------------------------------------------------------------- *)

(* Everything schedule-independent in a result, as a comparable string:
   verdicts, answer sets, trip reasons — not seconds, not stats. *)
let project (r : Corpus.result_one) =
  ( r.item_name,
    match r.outcome with
    | Ok (Corpus.Classified c) ->
        Fmt.str "classified %s depth=%d %s %s" c.dl_name c.depth
          (Option.value c.fragment ~default:"outside")
          c.status
    | Ok (Corpus.Evaluated e) ->
        Fmt.str "eval consistent=%b answers=%a" e.consistent
          Fmt.(
            list ~sep:semi (brackets (list ~sep:comma Structure.Element.pp)))
          e.answers
    | Error f -> Fmt.str "tripped %a" Reasoner.Budget.pp_reason f.reason )

let projection = Alcotest.(list (pair string string))

let projected report =
  List.map project report.Corpus.results

let eval_data =
  inst
    [
      ("r0", [ "a"; "b" ]);
      ("r0", [ "b"; "c" ]);
      ("r0", [ "c"; "a" ]);
      ("r1", [ "a"; "c" ]);
      ("C0", [ "a" ]);
      ("C1", [ "b" ]);
      ("C2", [ "c" ]);
    ]

let eval_query = Query.Parse.ucq_of_string "q(x) <- r0(x,y), C1(y)"

let eval_task = Corpus.Eval { query = eval_query; data = eval_data; max_extra = 1 }

let test_corpus_classify_parallel_eq_sequential =
  QCheck.Test.make ~name:"parallel classification = sequential" ~count:8
    QCheck.(pair (int_bound 100000) (int_range 2 5))
    (fun (seed, jobs) ->
      let items = Corpus.generate ~seed ~n:(1 + (seed mod 8)) () in
      projected (Corpus.run ~jobs Corpus.Classify items)
      = projected (Corpus.run Corpus.Classify items))

let test_corpus_eval_parallel_eq_sequential =
  QCheck.Test.make ~name:"parallel evaluation = sequential" ~count:4
    QCheck.(pair (int_bound 100000) (int_range 2 4))
    (fun (seed, jobs) ->
      let items = Corpus.generate ~seed ~n:4 () in
      projected (Corpus.run ~jobs eval_task items)
      = projected (Corpus.run eval_task items))

let test_load_dir_missing () =
  match Corpus.load_dir "/nonexistent-corpus-dir" with
  | Ok _ -> Alcotest.fail "expected an error"
  | Error _ -> ()

(* --------------------------------------------------------------- *)
(* Budget isolation                                                 *)
(* --------------------------------------------------------------- *)

(* A TBox whose evaluation forces heavy case splitting: cyclic
   existentials plus disjunctions plus counting, under a covering
   axiom. Evaluating over [eval_data] at max_extra 2 takes orders of
   magnitude longer than the trivial items beside it. *)
let hard_tbox =
  let c i = Dl.Concept.Atomic (Printf.sprintf "C%d" i) in
  let r = Dl.Concept.Name "r0" in
  [
    Dl.Tbox.Sub (Dl.Concept.Top, Dl.Concept.Or (c 0, Dl.Concept.Or (c 1, c 2)));
    Dl.Tbox.Sub (c 0, Dl.Concept.Exists (r, c 1));
    Dl.Tbox.Sub (c 1, Dl.Concept.Or (c 2, c 3));
    Dl.Tbox.Sub (c 2, Dl.Concept.Exists (r, c 0));
    Dl.Tbox.Sub (c 3, Dl.Concept.exactly 3 r (c 1));
    Dl.Tbox.Sub (c 3, Dl.Concept.Exists (Dl.Concept.Inv "r0", c 2));
  ]

let trivial_tbox = [ Dl.Tbox.Sub (Dl.Concept.Atomic "C0", Dl.Concept.Top) ]

let mixed_items =
  [
    { Corpus.name = "cheap-1"; tbox = trivial_tbox };
    { Corpus.name = "hard"; tbox = hard_tbox };
    { Corpus.name = "cheap-2"; tbox = trivial_tbox };
  ]

let mixed_task = Corpus.Eval { query = eval_query; data = eval_data; max_extra = 2 }

let expect_ok name (r : Corpus.result_one) =
  match r.outcome with
  | Ok _ -> ()
  | Error f ->
      Alcotest.failf "%s unexpectedly tripped (%a)" name
        Reasoner.Budget.pp_reason f.reason

(* Fuel is deterministic (propagations + conflicts), so a separating
   budget provably exists: sweep until the cheap items complete and the
   hard one trips, then check the cheap verdicts equal the unbudgeted
   ones — the sibling trip changed nothing for them. Every run is cold:
   each item opens its own session, and nothing outlives the run. *)
let cold_run ?fuel () =
  Corpus.run ?fuel ~jobs:2 mixed_task mixed_items

(* Every tripped item's session counted its trip, on whichever domain
   ran it, so the report's total holds one trip per [Error] item. *)
let check_trips_counted (report : Corpus.report) =
  let errors =
    List.length
      (List.filter (fun r -> Result.is_error r.Corpus.outcome) report.results)
  in
  let total = report.Corpus.total in
  check Alcotest.int "one counted trip per tripped item" errors
    (total.Reasoner.Stats.budget_fuel_trips
    + total.Reasoner.Stats.budget_timeouts)

let test_fuel_trips_only_the_expensive_item () =
  let unbudgeted = projected (cold_run ()) in
  let rec sweep fuel =
    if fuel > 1 lsl 24 then
      Alcotest.fail "no separating fuel found (hard item too cheap)"
    else
      let report = cold_run ~fuel () in
      match List.map (fun r -> r.Corpus.outcome) report.Corpus.results with
      | [ Ok _; Error { reason = Reasoner.Budget.Fuel; _ }; Ok _ ] -> report
      | _ -> sweep (fuel * 2)
  in
  let report = sweep 64 in
  check_trips_counted report;
  let cheap l = [ List.nth l 0; List.nth l 2 ] in
  check projection "siblings unaffected by the trip" (cheap unbudgeted)
    (cheap (projected report))

(* The wall-clock variant the CLI exposes as --timeout. The hard item
   here is the heavyweight of the generated corpus (a depth-3 ontology
   whose evaluation over an 80-element ring runs for about a second
   unbudgeted, most of it grounding 1.4 M records, where a 40-element
   ring takes a tenth of that);
   the trivial ones finish in well under a millisecond, so a
   tenth-of-a-second per-item deadline separates them with an order of
   magnitude to spare. *)
let ring_data =
  let el i = Printf.sprintf "e%d" i in
  let n = 80 in
  let facts = ref [] in
  for i = 1 to n do
    facts := ("r0", [ el i; el (1 + (i mod n)) ]) :: !facts;
    if i mod 3 = 1 then facts := ("r1", [ el i; el (1 + (i * 5 mod n)) ]) :: !facts;
    if i mod 2 = 1 then facts := ("C0", [ el i ]) :: !facts;
    if i mod 3 = 2 then facts := ("C1", [ el i ]) :: !facts;
    if i mod 4 = 1 then facts := ("C2", [ el i ]) :: !facts
  done;
  inst !facts

let heavy_tbox =
  (* The slowest ontology of the seed-2017 corpus: depth 3. *)
  (List.nth (Corpus.generate ~seed:2017 ~n:24 ()) 20).Corpus.tbox

let timeout_items =
  [
    { Corpus.name = "cheap-1"; tbox = trivial_tbox };
    { Corpus.name = "heavy"; tbox = heavy_tbox };
    { Corpus.name = "cheap-2"; tbox = trivial_tbox };
  ]

let timeout_task =
  Corpus.Eval { query = eval_query; data = ring_data; max_extra = 2 }

let test_timeout_trips_only_the_expensive_item () =
  let report = Corpus.run ~timeout:0.1 ~jobs:2 timeout_task timeout_items in
  check_trips_counted report;
  (match (List.nth report.Corpus.results 1).Corpus.outcome with
  | Error { reason = Reasoner.Budget.Timeout; _ } -> ()
  | Ok _ -> Alcotest.fail "heavy item finished under the deadline"
  | Error f ->
      Alcotest.failf "heavy item tripped %a, expected a timeout"
        Reasoner.Budget.pp_reason f.reason);
  expect_ok "cheap-1" (List.nth report.Corpus.results 0);
  expect_ok "cheap-2" (List.nth report.Corpus.results 2);
  (* The deadline is per item, relative to item start: a batch of cheap
     items behind the heavy one must not inherit its elapsed time. *)
  let many =
    timeout_items
    @ List.init 6 (fun i ->
          { Corpus.name = Printf.sprintf "tail-%d" i; tbox = trivial_tbox })
  in
  let report = Corpus.run ~timeout:0.1 ~jobs:2 timeout_task many in
  List.iteri
    (fun i (r : Corpus.result_one) ->
      if i <> 1 then expect_ok r.item_name r)
    report.Corpus.results

(* --------------------------------------------------------------- *)
(* Trace merging                                                    *)
(* --------------------------------------------------------------- *)

let test_traces_merge_across_domains () =
  let items = Corpus.generate ~seed:7 ~n:5 () in
  let report, c =
    Obs.Trace.collect (fun () -> Corpus.run ~jobs:3 Corpus.Classify items)
  in
  check Alcotest.int "all items processed" 5 (List.length report.Corpus.results);
  check Alcotest.bool "merged collector well-formed" true
    (Obs.Trace.well_formed c);
  check Alcotest.int "no dangling spans" 0 (Obs.Trace.open_spans c);
  let item_spans =
    List.filter
      (fun (s : Obs.Trace.span) -> s.name = "corpus.item")
      (Obs.Trace.spans c)
  in
  check Alcotest.int "one merged span per item" 5 (List.length item_spans);
  List.iter
    (fun (s : Obs.Trace.span) ->
      check Alcotest.bool "span tagged with its worker domain" true
        (List.mem_assoc "domain" s.attrs))
    item_spans

let suite =
  [
    Alcotest.test_case "pool: map keeps submission order" `Quick test_map_order;
    Alcotest.test_case "pool: jobs clamp, inline sequential baseline" `Quick
      test_jobs_clamped_and_inline;
    Alcotest.test_case "pool: lowest-index exception, siblings run" `Quick
      test_exception_deterministic;
    Alcotest.test_case "pool: non-commutative map_reduce" `Quick
      test_map_reduce_non_commutative;
    Alcotest.test_case "pool: batch reuse and shutdown" `Quick
      test_batches_reuse_and_shutdown;
    QCheck_alcotest.to_alcotest test_corpus_classify_parallel_eq_sequential;
    QCheck_alcotest.to_alcotest test_corpus_eval_parallel_eq_sequential;
    Alcotest.test_case "corpus: load_dir error reporting" `Quick
      test_load_dir_missing;
    Alcotest.test_case "budget: fuel trips only the expensive item" `Quick
      test_fuel_trips_only_the_expensive_item;
    Alcotest.test_case "budget: timeout trips only the expensive item" `Quick
      test_timeout_trips_only_the_expensive_item;
    Alcotest.test_case "trace: per-domain collectors merge at join" `Quick
      test_traces_merge_across_domains;
  ]
