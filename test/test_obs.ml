(* The observability layer: span bookkeeping, exporters and the no-op
   guarantee. The central properties:

   - spans collected from a real traced run are structurally
     well-formed (every span closed, children inside their parents);
   - the Chrome export is valid JSON (checked by parsing it back with
     Obs.Json.parse) and preserves span count and parentage;
   - the event ring buffer drops the OLDEST events at capacity and
     reports how many were dropped;
   - with no collector installed, instrumented code computes
     byte-identical results to un-traced code;
   - a budget trip inside a traced query still yields a closed,
     exportable trace whose root span carries the trip status. *)

open Helpers
module Trace = Obs.Trace
module Metrics = Obs.Metrics
module Export = Obs.Export
module Json = Obs.Json

let check = Alcotest.check

(* ------------------------------------------------------------------ *)
(* Exporter output is validated with the library parser. *)

let parse_json s =
  match Json.parse s with Ok j -> j | Error m -> Alcotest.failf "invalid JSON: %s" m

let member k j =
  match Json.member k j with Some v -> v | None -> Alcotest.failf "no member %s" k

let as_list = function Json.Arr l -> l | _ -> Alcotest.fail "not an array"
let as_str = function Json.Str s -> s | _ -> Alcotest.fail "not a string"
let as_num = function Json.Num f -> f | _ -> Alcotest.fail "not a number"

(* ------------------------------------------------------------------ *)
(* Workload: the disjunctive OMQ of the budget tests — it grounds,
   solves and case-splits, so a traced run produces real spans. *)

let omq_disj =
  Omq.make o_disj (Query.Parse.ucq_of_string "q(x) <- A(x) | q(x) <- B(x)")

let d_disj = inst [ ("D", [ "a" ]); ("D", [ "b" ]); ("A", [ "c" ]) ]

let traced_answers () =
  Trace.collect (fun () -> Omq.certain_answers ~max_extra:1 omq_disj d_disj)

(* ------------------------------------------------------------------ *)

let test_span_nesting () =
  let answers, c = traced_answers () in
  Alcotest.(check bool) "produced answers" true (answers <> []);
  Alcotest.(check bool) "spans recorded" true (Trace.span_count c > 0);
  check Alcotest.int "no dangling spans" 0 (Trace.open_spans c);
  Alcotest.(check bool) "well-formed" true (Trace.well_formed c);
  let names = List.map (fun (s : Trace.span) -> s.name) (Trace.spans c) in
  List.iter
    (fun expected ->
      Alcotest.(check bool)
        (expected ^ " span present") true (List.mem expected names))
    [ "omq.query"; "omq.certain"; "engine.ground"; "ground.build";
      "engine.solve"; "dpll.solve" ]

(* Clause loading has its own span: the first sync runs inside
   engine.ground and loads the whole grounding; every sync reports the
   clauses it pushed and the variables it admitted. *)
let test_sync_span () =
  let _, c = traced_answers () in
  let spans = Trace.spans c in
  let syncs =
    List.filter (fun (s : Trace.span) -> s.name = "engine.sync") spans
  in
  Alcotest.(check bool) "engine.sync spans present" true (syncs <> []);
  let int_attr (s : Trace.span) k =
    match List.assoc_opt k s.attrs with
    | Some (Trace.Int n) -> n
    | _ -> Alcotest.failf "engine.sync without an int %s attribute" k
  in
  List.iter
    (fun s ->
      Alcotest.(check bool) "non-negative counts" true
        (int_attr s "clauses" >= 0 && int_attr s "vars" >= 0))
    syncs;
  let first = List.hd syncs in
  let parent = List.find (fun (s : Trace.span) -> s.id = first.parent) spans in
  check Alcotest.string "first sync under engine.ground" "engine.ground"
    parent.name;
  Alcotest.(check bool) "first sync loads clauses and variables" true
    (int_attr first "clauses" > 0 && int_attr first "vars" > 0)

let test_manual_nesting () =
  let (), c =
    Trace.collect (fun () ->
        Trace.with_span "outer" (fun () ->
            Trace.with_span "inner" (fun () -> Trace.event "tick");
            Trace.with_span "inner2" (fun () -> ())))
  in
  Alcotest.(check bool) "well-formed" true (Trace.well_formed c);
  check Alcotest.int "three spans" 3 (Trace.span_count c);
  match Trace.spans c with
  | [ outer; inner; inner2 ] ->
      check Alcotest.int "outer is a root" (-1) outer.Trace.parent;
      check Alcotest.int "inner under outer" outer.Trace.id inner.Trace.parent;
      check Alcotest.int "inner2 under outer" outer.Trace.id
        inner2.Trace.parent;
      (match Trace.events c with
      | [ ev ] ->
          check Alcotest.int "event attributed to inner" inner.Trace.id
            ev.Trace.span_id
      | evs -> Alcotest.failf "expected 1 event, got %d" (List.length evs))
  | _ -> Alcotest.fail "expected exactly three spans"

(* An exception that bypasses inner closers still closes every span,
   with the exception as the status. *)
exception Boom

let test_exception_closes () =
  let r, c =
    Trace.collect (fun () ->
        try
          Trace.with_span "outer" (fun () ->
              Trace.with_span "inner" (fun () -> raise Boom))
        with Boom -> "caught")
  in
  check Alcotest.string "exception caught" "caught" r;
  Alcotest.(check bool) "well-formed" true (Trace.well_formed c);
  List.iter
    (fun (s : Trace.span) ->
      Alcotest.(check bool)
        (s.Trace.name ^ " has failure status")
        true
        (s.Trace.status <> None))
    (Trace.spans c)

let test_chrome_round_trip () =
  let _, c = traced_answers () in
  let json = parse_json (Export.render Export.Chrome c) in
  let events = as_list (member "traceEvents" json) in
  let complete =
    List.filter (fun ev -> as_str (member "ph" ev) = "X") events
  in
  check Alcotest.int "one X event per span" (Trace.span_count c)
    (List.length complete);
  (* parentage survives the export *)
  let parent_of ev = int_of_float (as_num (member "parent_id" (member "args" ev))) in
  let id_of ev = int_of_float (as_num (member "span_id" (member "args" ev))) in
  let by_id = List.map (fun ev -> (id_of ev, ev)) complete in
  List.iter
    (fun ev ->
      let p = parent_of ev in
      if p >= 0 then
        Alcotest.(check bool) "parent exists" true (List.mem_assoc p by_id);
      Alcotest.(check bool)
        "durations non-negative" true
        (as_num (member "dur" ev) >= 0.0))
    complete;
  (* instant events carry their names *)
  let instants =
    List.filter (fun ev -> as_str (member "ph" ev) = "i") events
  in
  check Alcotest.int "instant events exported"
    (List.length (Trace.events c))
    (List.length instants)

let test_jsonl_round_trip () =
  let _, c = traced_answers () in
  let lines =
    String.split_on_char '\n' (String.trim (Export.render Export.Jsonl c))
  in
  check Alcotest.int "one line per span and event"
    (Trace.span_count c + List.length (Trace.events c))
    (List.length lines);
  List.iter (fun line -> ignore (parse_json line)) lines

let test_ring_eviction () =
  let (), c =
    Trace.collect ~ring_capacity:4 (fun () ->
        Trace.with_span "s" (fun () ->
            for i = 0 to 9 do
              Trace.event ~attrs:[ ("i", Trace.Int i) ] "tick"
            done))
  in
  check Alcotest.int "dropped count" 6 (Trace.dropped_events c);
  let kept =
    List.map
      (fun (ev : Trace.event) ->
        match ev.Trace.eattrs with
        | [ ("i", Trace.Int i) ] -> i
        | _ -> Alcotest.fail "unexpected event attrs")
      (Trace.events c)
  in
  check Alcotest.(list int) "oldest dropped, order kept" [ 6; 7; 8; 9 ] kept

(* No collector installed: the instrumented stack must compute exactly
   the un-traced result (the no-op path returns f () unchanged). *)
let test_noop_identical () =
  let untraced = Omq.certain_answers ~max_extra:1 omq_disj d_disj in
  let traced, c = traced_answers () in
  let untraced' = Omq.certain_answers ~max_extra:1 omq_disj d_disj in
  Alcotest.(check bool) "collector saw spans" true (Trace.span_count c > 0);
  Alcotest.(check bool)
    "identical answers" true
    (untraced = traced && traced = untraced');
  Alcotest.(check bool) "tracing off again" false (Trace.enabled ())

(* Satellite 4: a deterministic fuel trip inside a traced query still
   produces a closed, exportable trace, and the root span carries the
   trip status. *)
let test_budget_trip_trace_closed () =
  let outcome, c =
    Trace.collect (fun () ->
        Omq.certain_answers_within
          (Reasoner.Budget.inject_after 25)
          ~max_extra:1 omq_disj d_disj)
  in
  (match outcome with
  | `Out_of_fuel _ -> ()
  | `Ok _ -> Alcotest.fail "expected the injected budget to trip"
  | `Timeout _ -> Alcotest.fail "expected a fuel trip, got a timeout");
  check Alcotest.int "no dangling spans" 0 (Trace.open_spans c);
  Alcotest.(check bool) "well-formed" true (Trace.well_formed c);
  (* the root query span carries the trip status *)
  let roots =
    List.filter (fun (s : Trace.span) -> s.Trace.parent = -1) (Trace.spans c)
  in
  Alcotest.(check bool)
    "a root span has out_of_fuel status" true
    (List.exists
       (fun (s : Trace.span) -> s.Trace.status = Some "out_of_fuel")
       roots);
  (* and the trace still exports as valid JSON *)
  let json = parse_json (Export.render Export.Chrome c) in
  Alcotest.(check bool)
    "budget_trip event exported" true
    (List.exists
       (fun ev -> as_str (member "name" ev) = "budget_trip")
       (as_list (member "traceEvents" json)))

let test_profile () =
  let _, c = traced_answers () in
  let rows = Export.profile c in
  Alcotest.(check bool) "profile non-empty" true (rows <> []);
  List.iter
    (fun (r : Export.profile_row) ->
      Alcotest.(check bool) (r.Export.pname ^ " count positive") true (r.Export.count > 0);
      Alcotest.(check bool)
        (r.Export.pname ^ " self <= total")
        true
        (r.Export.self_s <= r.Export.total_s +. 1e-9);
      Alcotest.(check bool)
        (r.Export.pname ^ " self non-negative")
        true (r.Export.self_s >= -1e-9))
    rows;
  (* rows are sorted by descending self time *)
  let selfs = List.map (fun (r : Export.profile_row) -> r.Export.self_s) rows in
  Alcotest.(check bool)
    "sorted by self desc" true
    (List.sort (fun a b -> compare b a) selfs = selfs)

let test_metrics_registry () =
  let m = Metrics.create () in
  Metrics.incr m "a.count";
  Metrics.incr ~by:4 m "a.count";
  Metrics.set_count m "b.count" 7;
  Metrics.set_count m "b.count" 7;
  Metrics.set m "g" 2.5;
  Metrics.observe m "h" 1.0;
  Metrics.observe m "h" 3.0;
  check Alcotest.(option int) "counter" (Some 5) (Metrics.counter_value m "a.count");
  check Alcotest.(option int) "absolute counter idempotent" (Some 7)
    (Metrics.counter_value m "b.count");
  check
    Alcotest.(option (float 1e-9))
    "gauge" (Some 2.5) (Metrics.gauge_value m "g");
  (match Metrics.histogram_stats m "h" with
  | Some (2, 4.0, 1.0, 3.0) -> ()
  | _ -> Alcotest.fail "histogram stats");
  (* kind mismatch is a typed error *)
  (match Metrics.incr m "g" with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "expected Invalid_argument on kind mismatch");
  (* the JSON export parses and carries every name *)
  let json = parse_json (Json.render (Metrics.to_json m)) in
  List.iter
    (fun name -> ignore (member name json))
    (Metrics.names m)

(* [diff] undoes [add]: diff (a+b) a = b on every counter, checked
   through the JSON schema, which names each field once — every
   documented key, in emission order. *)
let test_stats_diff () =
  let module S = Reasoner.Stats in
  let mk k =
    let t = S.create () in
    t.groundings <- k;
    t.solves <- k + 1;
    t.decisions <- k + 2;
    t.propagations <- k + 3;
    t.conflicts <- k + 4;
    t.memo_hits <- k + 5;
    t.memo_misses <- k + 6;
    t.budget_timeouts <- k + 7;
    t.budget_fuel_trips <- k + 8;
    t.ground_seconds <- float_of_int k +. 0.5;
    t.solve_seconds <- float_of_int k +. 0.25;
    t
  in
  let a = mk 100 and b = mk 7 in
  let sum = S.copy a in
  S.add ~into:sum b;
  let fields t =
    match parse_json (S.to_json t) with
    | Json.Obj fields -> fields
    | _ -> Alcotest.fail "Stats.to_json is not an object"
  in
  let want = fields b and got = fields (S.diff sum a) in
  check Alcotest.(list string) "keys in emission order" stats_keys
    (List.map fst want);
  List.iter
    (fun (k, v) ->
      check Alcotest.(float 1e-9) k (as_num v) (as_num (List.assoc k got)))
    want

(* JSON has no NaN or infinity: the renderer writes null, so our own
   output always parses back. *)
let test_nonfinite_render () =
  let m = Metrics.create () in
  Metrics.set m "g" Float.nan;
  let rendered = Json.render (Metrics.to_json m) in
  check Alcotest.string "NaN gauge" {|{"g":null}|} rendered;
  check Alcotest.bool "NaN gauge parses" true
    (Json.member "g" (parse_json rendered) = Some Json.Null);
  let rendered = Json.render (Json.Arr [ Json.Num infinity; Json.Num neg_infinity ]) in
  check Alcotest.string "infinite Num" "[null,null]" rendered;
  check Alcotest.bool "infinite Num parses" true
    (Json.equal (parse_json rendered) (Json.Arr [ Json.Null; Json.Null ]))

let suite =
  [
    Alcotest.test_case "traced run: spans nest well-formed" `Quick
      test_span_nesting;
    Alcotest.test_case "engine.sync span: clause loading counted" `Quick
      test_sync_span;
    Alcotest.test_case "manual spans: parentage and event attribution" `Quick
      test_manual_nesting;
    Alcotest.test_case "exception unwinding closes every span" `Quick
      test_exception_closes;
    Alcotest.test_case "chrome export round-trips through a JSON parser" `Quick
      test_chrome_round_trip;
    Alcotest.test_case "jsonl export: one valid object per line" `Quick
      test_jsonl_round_trip;
    Alcotest.test_case "event ring drops oldest at capacity" `Quick
      test_ring_eviction;
    Alcotest.test_case "no-op collector leaves results identical" `Quick
      test_noop_identical;
    Alcotest.test_case "budget trip yields a closed, exportable trace" `Quick
      test_budget_trip_trace_closed;
    Alcotest.test_case "profile: self/total aggregation" `Quick test_profile;
    Alcotest.test_case "metrics registry: kinds, idempotence, JSON" `Quick
      test_metrics_registry;
    Alcotest.test_case "stats diff undoes add" `Quick test_stats_diff;
    Alcotest.test_case "non-finite numbers render as null" `Quick
      test_nonfinite_render;
  ]
