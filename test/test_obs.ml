(* The observability layer: span bookkeeping, exporters and the no-op
   guarantee. The central properties:

   - spans collected from a real traced run are structurally
     well-formed (every span closed, children inside their parents);
   - the Chrome export is valid JSON (checked by round-tripping it
     through a JSON parser written below — the toolchain ships none)
     and preserves span count and parentage;
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

let check = Alcotest.check

(* ------------------------------------------------------------------ *)
(* A minimal JSON parser: enough to validate the exporters' output.
   Numbers are floats; no unicode unescaping beyond \uXXXX skipping. *)

type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of json list
  | Obj of (string * json) list

exception Bad_json of string

let parse_json s =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let fail m = raise (Bad_json (Printf.sprintf "%s at %d" m !pos)) in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected '%c'" c)
  in
  let literal word v =
    if !pos + String.length word <= n && String.sub s !pos (String.length word) = word
    then begin
      pos := !pos + String.length word;
      v
    end
    else fail ("expected " ^ word)
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' -> (
          advance ();
          match peek () with
          | Some 'n' -> Buffer.add_char b '\n'; advance (); go ()
          | Some 't' -> Buffer.add_char b '\t'; advance (); go ()
          | Some 'r' -> Buffer.add_char b '\r'; advance (); go ()
          | Some 'u' ->
              advance ();
              pos := !pos + 4;
              Buffer.add_char b '?';
              go ()
          | Some c -> Buffer.add_char b c; advance (); go ()
          | None -> fail "bad escape")
      | Some c ->
          Buffer.add_char b c;
          advance ();
          go ()
    in
    go ();
    Buffer.contents b
  in
  let parse_number () =
    let start = !pos in
    let num_char = function
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while (match peek () with Some c -> num_char c | None -> false) do
      advance ()
    done;
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> f
    | None -> fail "bad number"
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | Some '"' -> Str (parse_string ())
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else
          let rec members acc =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                members ((k, v) :: acc)
            | Some '}' ->
                advance ();
                List.rev ((k, v) :: acc)
            | _ -> fail "expected ',' or '}'"
          in
          Obj (members [])
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          List []
        end
        else
          let rec items acc =
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                items (v :: acc)
            | Some ']' ->
                advance ();
                List.rev (v :: acc)
            | _ -> fail "expected ',' or ']'"
          in
          List (items [])
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> Num (parse_number ())
    | None -> fail "empty input"
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

let member k = function
  | Obj fields -> List.assoc k fields
  | _ -> raise (Bad_json ("no member " ^ k))

let as_list = function List l -> l | _ -> raise (Bad_json "not a list")
let as_str = function Str s -> s | _ -> raise (Bad_json "not a string")
let as_num = function Num f -> f | _ -> raise (Bad_json "not a number")

(* ------------------------------------------------------------------ *)
(* Workload: the disjunctive OMQ of the budget tests — it grounds,
   solves and case-splits, so a traced run produces real spans. *)

let omq_disj =
  Omq.make o_disj (Query.Parse.ucq_of_string "q(x) <- A(x) | q(x) <- B(x)")

let d_disj = inst [ ("D", [ "a" ]); ("D", [ "b" ]); ("A", [ "c" ]) ]

let traced_answers () =
  Reasoner.Engine.clear_cache ();
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
  let json = parse_json (Export.chrome c) in
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
    String.split_on_char '\n' (String.trim (Export.jsonl c))
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
  Reasoner.Engine.clear_cache ();
  let untraced = Omq.certain_answers ~max_extra:1 omq_disj d_disj in
  let traced, c = traced_answers () in
  Reasoner.Engine.clear_cache ();
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
  Reasoner.Engine.clear_cache ();
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
  let json = parse_json (Export.chrome c) in
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
  let json = parse_json (Metrics.to_json m) in
  List.iter
    (fun name -> ignore (member name json))
    (Metrics.names m)

let test_stats_publish () =
  let st = Reasoner.Stats.create () in
  st.Reasoner.Stats.solves <- 3;
  st.Reasoner.Stats.cache_hits <- 2;
  st.Reasoner.Stats.solve_seconds <- 0.5;
  let m = Metrics.create () in
  Reasoner.Stats.publish ~prefix:"t" ~into:m st;
  Reasoner.Stats.publish ~prefix:"t" ~into:m st;
  check Alcotest.(option int) "published once" (Some 3)
    (Metrics.counter_value m "t.solves");
  check Alcotest.(option int) "cache hits" (Some 2)
    (Metrics.counter_value m "t.cache_hits");
  check
    Alcotest.(option (float 1e-9))
    "seconds gauge" (Some 0.5)
    (Metrics.gauge_value m "t.solve_seconds");
  (* the Stats JSON itself parses, with the documented keys *)
  let json = parse_json (Reasoner.Stats.to_json st) in
  List.iter
    (fun k -> ignore (member k json))
    [ "groundings"; "solves"; "decisions"; "propagations"; "conflicts";
      "cache_hits"; "cache_misses"; "budget_timeouts"; "budget_fuel_trips";
      "ground_seconds"; "solve_seconds" ]

(* [diff] undoes [add]: diff (a+b) a = b on every counter, checked
   through the JSON schema, which names each field once. *)
let test_stats_diff () =
  let module S = Reasoner.Stats in
  let mk k =
    let t = S.create () in
    t.groundings <- k;
    t.solves <- k + 1;
    t.decisions <- k + 2;
    t.propagations <- k + 3;
    t.conflicts <- k + 4;
    t.cache_hits <- k + 5;
    t.cache_misses <- k + 6;
    t.memo_hits <- k + 7;
    t.memo_misses <- k + 8;
    t.budget_timeouts <- k + 9;
    t.budget_fuel_trips <- k + 10;
    t.ground_seconds <- float_of_int k +. 0.5;
    t.solve_seconds <- float_of_int k +. 0.25;
    t
  in
  let a = mk 100 and b = mk 7 in
  let sum = S.copy a in
  S.add ~into:sum b;
  let fields t =
    match parse_json (S.to_json t) with
    | Obj fields -> fields
    | _ -> Alcotest.fail "Stats.to_json is not an object"
  in
  let want = fields b and got = fields (S.diff sum a) in
  check Alcotest.int "field count" 13 (List.length want);
  List.iter
    (fun (k, v) ->
      check Alcotest.(float 1e-9) k (as_num v) (as_num (List.assoc k got)))
    want

let suite =
  [
    Alcotest.test_case "traced run: spans nest well-formed" `Quick
      test_span_nesting;
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
    Alcotest.test_case "stats publish into metrics" `Quick test_stats_publish;
    Alcotest.test_case "stats diff undoes add" `Quick test_stats_diff;
  ]
