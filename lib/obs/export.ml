(* Exporters for a filled Trace collector:

   - [chrome]: the Chrome trace-event format (JSON object with a
     "traceEvents" array of complete "X" events and instant "i"
     events), loadable in chrome://tracing and Perfetto;
   - [jsonl]: one span per line, for grep/jq pipelines;
   - [profile]: the per-phase self/total wall-time aggregation behind
     `omq_tool --profile`.

   Timestamps are exported in microseconds relative to the earliest
   span/event of the collector, so traces are stable under re-runs up
   to durations. *)

type format = Chrome | Jsonl

let int i = Json.Num (float_of_int i)

let attr_json = function
  | Trace.Str s -> Json.Str s
  | Trace.Int i -> int i
  | Trace.Float f -> Json.Num f
  | Trace.Bool b -> Json.Bool b

let status_member = function
  | Some st -> [ ("status", Json.Str st) ]
  | None -> []

let args_json attrs status =
  Json.Obj
    (status_member status @ List.rev_map (fun (k, v) -> (k, attr_json v)) attrs)

(* Category: the dotted prefix of the span name ("engine.solve" ->
   "engine"), which Perfetto uses for colouring and filtering. *)
let category name =
  match String.index_opt name '.' with
  | Some i -> String.sub name 0 i
  | None -> name

let epoch c =
  List.fold_left
    (fun t0 (s : Trace.span) -> Float.min t0 s.start_s)
    (List.fold_left
       (fun t0 (e : Trace.event) -> Float.min t0 e.ts_s)
       infinity (Trace.events c))
    (Trace.spans c)

let us t0 t = (t -. t0) *. 1e6

(* The Chrome trace-event rendering: a ["traceEvents"] array with one
   complete ("X") event per span — [args] carrying [span_id],
   [parent_id], the span attributes and [status] — and one instant
   ("i") event per retained ring-buffer event. Timestamps are
   microseconds from the collector's earliest record. *)
let chrome c =
  let t0 = epoch c in
  let span_events =
    List.map
      (fun (s : Trace.span) ->
        Json.Obj
          [
            ("name", Json.Str s.name);
            ("cat", Json.Str (category s.name));
            ("ph", Json.Str "X");
            ("ts", Json.Num (us t0 s.start_s));
            ("dur", Json.Num (Float.max 0.0 s.dur_s *. 1e6));
            ("pid", int 1);
            ("tid", int 1);
            ( "args",
              args_json
                (("span_id", Trace.Int s.id)
                :: ("parent_id", Trace.Int s.parent)
                :: s.attrs)
                s.status );
          ])
      (Trace.spans c)
  in
  let instant_events =
    List.map
      (fun (e : Trace.event) ->
        Json.Obj
          [
            ("name", Json.Str e.ename);
            ("cat", Json.Str "event");
            ("ph", Json.Str "i");
            ("ts", Json.Num (us t0 e.ts_s));
            ("s", Json.Str "t");
            ("pid", int 1);
            ("tid", int 1);
            ("args", args_json (("span_id", Trace.Int e.span_id) :: e.eattrs) None);
          ])
      (Trace.events c)
  in
  Json.Obj
    [
      ("traceEvents", Json.Arr (span_events @ instant_events));
      ("displayTimeUnit", Json.Str "ms");
      ("otherData",
       Json.Obj
         [
           ("spans", int (Trace.span_count c));
           ("events_retained", int (List.length (Trace.events c)));
           ("events_dropped", int (Trace.dropped_events c));
         ]);
    ]

(* One span per line: {"name","span_id","parent_id","start_us","dur_us",
   "status"?, ...attrs}. Events follow as {"event":...} lines. *)
let jsonl c =
  let t0 = epoch c in
  List.map
    (fun (s : Trace.span) ->
      Json.Obj
        ([
           ("name", Json.Str s.name);
           ("span_id", int s.id);
           ("parent_id", int s.parent);
           ("start_us", Json.Num (us t0 s.start_s));
           ("dur_us", Json.Num (Float.max 0.0 s.dur_s *. 1e6));
         ]
        @ status_member s.status
        @ List.rev_map (fun (k, v) -> (k, attr_json v)) s.attrs))
    (Trace.spans c)
  @ List.map
      (fun (e : Trace.event) ->
        Json.Obj
          ([
             ("event", Json.Str e.ename);
             ("span_id", int e.span_id);
             ("ts_us", Json.Num (us t0 e.ts_s));
           ]
          @ List.map (fun (k, v) -> (k, attr_json v)) e.eattrs))
      (Trace.events c)

let render fmt c =
  match fmt with
  | Chrome -> Json.render (chrome c)
  | Jsonl ->
      String.concat "" (List.map (fun j -> Json.render j ^ "\n") (jsonl c))

let to_file fmt c path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (render fmt c))

(* ------------------------------------------------------------------ *)
(* The profile table                                                    *)
(* ------------------------------------------------------------------ *)

type profile_row = {
  pname : string;
  count : int;
  total_s : float;  (* sum of span durations *)
  self_s : float;  (* total minus time in direct children *)
}

let profile c =
  let spans = Trace.spans c in
  let self = Hashtbl.create 16 in
  (* self time: subtract each span's duration from its parent's credit *)
  let credit = Array.of_list (List.map (fun (s : Trace.span) -> Float.max 0.0 s.dur_s) spans) in
  List.iter
    (fun (s : Trace.span) ->
      if s.parent >= 0 then
        credit.(s.parent) <- credit.(s.parent) -. Float.max 0.0 s.dur_s)
    spans;
  List.iter
    (fun (s : Trace.span) ->
      let total, slf, n =
        Option.value (Hashtbl.find_opt self s.name) ~default:(0.0, 0.0, 0)
      in
      Hashtbl.replace self s.name
        (total +. Float.max 0.0 s.dur_s, slf +. credit.(s.id), n + 1))
    spans;
  Hashtbl.fold
    (fun pname (total_s, self_s, count) acc ->
      { pname; count; total_s; self_s } :: acc)
    self []
  |> List.sort (fun a b -> compare b.self_s a.self_s)

let pp_profile ppf rows =
  Fmt.pf ppf "%-28s %8s %12s %12s@." "phase" "count" "self(s)" "total(s)";
  List.iter
    (fun r ->
      Fmt.pf ppf "%-28s %8d %12.6f %12.6f@." r.pname r.count
        (Float.max 0.0 r.self_s) r.total_s)
    rows
