(* The telemetry plane: bucketed histograms with quantile estimation,
   the Prometheus text exposition, the flight-recorder ring, and the
   daemon's live endpoints.

   The load-bearing properties:

   - the histogram quantile estimate always lands inside the bucket
     that holds the exact empirical quantile, and inside [min, max];
   - the exposition output obeys the 0.0.4 text grammar (checked by a
     parser written here) and round-trips the registry's values;
   - the flight ring keeps the newest [capacity] records, oldest
     first, and counts what it dropped;
   - a live daemon's /metrics endpoint advances serve_requests_total
     between scrapes, counts every acknowledged update in its
     serve_delta_* series and the stats op's counters exactly, and the
     dump_telemetry wire op returns the documented shape. *)

module P = Omq.Protocol
module Metrics = Obs.Metrics

let check = Alcotest.check

(* ------------------------------------------------------------------ *)
(* Quantile estimate vs exact sort. *)

let bucket_interval ~max_v v =
  (* [lo, hi] of the histogram bucket holding v, mirroring the static
     layout: bucket i spans (bounds.(i-1), bounds.(i)], overflow spans
     (last bound, max observation]. *)
  let bounds = Metrics.bucket_bounds in
  let n = Array.length bounds in
  let i = ref 0 in
  while !i < n && bounds.(!i) < v do
    i := !i + 1
  done;
  let lo = if !i = 0 then 0.0 else bounds.(!i - 1) in
  let hi = if !i >= n then max_v else bounds.(!i) in
  (lo, hi)

let gen_samples =
  QCheck.Gen.(
    list_size (int_range 1 200)
      (* log-uniform over the full bucket range plus the overflow *)
      (map (fun e -> 10.0 ** e) (float_range (-6.5) 3.5)))

let test_quantile_bounds =
  QCheck.Test.make ~name:"quantile lands in the exact quantile's bucket"
    ~count:300
    (QCheck.make gen_samples)
    (fun samples ->
      let reg = Metrics.create () in
      List.iter (Metrics.observe reg "h") samples;
      let sorted = Array.of_list (List.sort compare samples) in
      let n = Array.length sorted in
      let max_v = sorted.(n - 1) and min_v = sorted.(0) in
      List.for_all
        (fun q ->
          match Metrics.quantile reg "h" q with
          | None -> false
          | Some est ->
              let rank = q *. float_of_int n in
              let exact =
                sorted.(min (n - 1) (max 0 (int_of_float (ceil rank) - 1)))
              in
              let lo, hi = bucket_interval ~max_v exact in
              let eps = 1e-9 *. Float.max 1.0 hi in
              est >= lo -. eps && est <= hi +. eps && est >= min_v -. eps
              && est <= max_v +. eps)
        [ 0.05; 0.25; 0.5; 0.9; 0.95; 0.99; 1.0 ])

(* ------------------------------------------------------------------ *)
(* Prometheus exposition: grammar + value round-trip.

   The parser below accepts exactly the 0.0.4 text format the daemon
   emits: '# HELP name text', '# TYPE name kind', 'name[{labels}]
   value'. It returns samples keyed by (name, labels). *)

type sample = { sname : string; labels : (string * string) list; v : float }

exception Bad_exposition of string

let parse_exposition doc =
  let fail m = raise (Bad_exposition m) in
  let is_name_char c =
    (c >= 'a' && c <= 'z')
    || (c >= 'A' && c <= 'Z')
    || (c >= '0' && c <= '9')
    || c = '_' || c = ':'
  in
  let parse_labels s =
    (* label pairs in braces; values are quoted with backslash,
       quote and newline escapes *)
    let n = String.length s in
    let pos = ref 1 in
    let labels = ref [] in
    while s.[!pos] <> '}' do
      let k0 = !pos in
      while is_name_char s.[!pos] do
        incr pos
      done;
      let key = String.sub s k0 (!pos - k0) in
      if s.[!pos] <> '=' then fail "label: expected '='";
      incr pos;
      if s.[!pos] <> '"' then fail "label: expected '\"'";
      incr pos;
      let buf = Buffer.create 16 in
      let rec value () =
        if !pos >= n then fail "label: unterminated value"
        else
          match s.[!pos] with
          | '"' -> incr pos
          | '\\' ->
              (match s.[!pos + 1] with
              | '\\' -> Buffer.add_char buf '\\'
              | '"' -> Buffer.add_char buf '"'
              | 'n' -> Buffer.add_char buf '\n'
              | c -> fail (Printf.sprintf "label: bad escape '\\%c'" c));
              pos := !pos + 2;
              value ()
          | c ->
              Buffer.add_char buf c;
              incr pos;
              value ()
      in
      value ();
      labels := (key, Buffer.contents buf) :: !labels;
      if s.[!pos] = ',' then incr pos
    done;
    if !pos <> n - 1 then fail "label: garbage after '}'";
    List.rev !labels
  in
  let helps = Hashtbl.create 16 and types = Hashtbl.create 16 in
  let samples = ref [] in
  let seen_sample = Hashtbl.create 16 in
  List.iter
    (fun line ->
      if line = "" then ()
      else if String.length line >= 7 && String.sub line 0 7 = "# HELP " then begin
        let rest = String.sub line 7 (String.length line - 7) in
        let name, _help =
          match String.index_opt rest ' ' with
          | Some i ->
              ( String.sub rest 0 i,
                String.sub rest (i + 1) (String.length rest - i - 1) )
          | None -> (rest, "")
        in
        if Hashtbl.mem helps name then fail ("duplicate HELP for " ^ name);
        if Hashtbl.mem seen_sample name then
          fail ("HELP after samples for " ^ name);
        Hashtbl.add helps name ()
      end
      else if String.length line >= 7 && String.sub line 0 7 = "# TYPE " then begin
        let rest = String.sub line 7 (String.length line - 7) in
        match String.split_on_char ' ' rest with
        | [ name; kind ] ->
            if not (List.mem kind [ "counter"; "gauge"; "histogram" ]) then
              fail ("bad TYPE kind " ^ kind);
            if Hashtbl.mem types name then fail ("duplicate TYPE for " ^ name);
            if Hashtbl.mem seen_sample name then
              fail ("TYPE after samples for " ^ name);
            Hashtbl.add types name kind
        | _ -> fail ("bad TYPE line: " ^ line)
      end
      else if String.length line >= 1 && line.[0] = '#' then
        fail ("bad comment line: " ^ line)
      else begin
        (* name[{labels}] value *)
        let name_end = ref 0 in
        while
          !name_end < String.length line && is_name_char line.[!name_end]
        do
          incr name_end
        done;
        if !name_end = 0 then fail ("sample with no name: " ^ line);
        let sname = String.sub line 0 !name_end in
        (if
           sname.[0] >= '0' && sname.[0] <= '9'
         then fail ("name starts with a digit: " ^ sname));
        let rest = String.sub line !name_end (String.length line - !name_end) in
        let labels, vstr =
          if rest <> "" && rest.[0] = '{' then
            match String.rindex_opt rest ' ' with
            | Some i ->
                ( parse_labels (String.sub rest 0 i),
                  String.sub rest (i + 1) (String.length rest - i - 1) )
            | None -> fail ("sample with no value: " ^ line)
          else if rest <> "" && rest.[0] = ' ' then
            ([], String.sub rest 1 (String.length rest - 1))
          else fail ("bad sample line: " ^ line)
        in
        let v =
          match float_of_string_opt vstr with
          | Some v -> v
          | None -> fail ("bad sample value: " ^ vstr)
        in
        (* every sample family must have been declared *)
        let family =
          (* strip the histogram suffixes to find the declared family *)
          let strip suffix s =
            let ls = String.length suffix and l = String.length s in
            if l > ls && String.sub s (l - ls) ls = suffix then
              Some (String.sub s 0 (l - ls))
            else None
          in
          match (strip "_bucket" sname, strip "_sum" sname, strip "_count" sname) with
          | Some f, _, _ when Hashtbl.mem types f -> f
          | _, Some f, _ when Hashtbl.mem types f -> f
          | _, _, Some f when Hashtbl.mem types f -> f
          | _ -> sname
        in
        if not (Hashtbl.mem types family) then
          fail ("sample before TYPE: " ^ sname);
        Hashtbl.replace seen_sample family ();
        samples := { sname; labels; v } :: !samples
      end)
    (String.split_on_char '\n' doc);
  (types, List.rev !samples)

let find_sample samples sname labels =
  List.find_opt (fun s -> s.sname = sname && s.labels = labels) samples

let test_exposition_round_trip () =
  let reg = Metrics.create () in
  Metrics.incr ~by:7 reg "serve.requests";
  Metrics.set reg "gc.major_words" 12345.0;
  Metrics.observe reg "serve.request.seconds" 0.003;
  Metrics.observe reg "serve.request.seconds" 0.004;
  Metrics.observe reg "serve.request.seconds" 2000.0 (* overflow bucket *);
  let worker = Metrics.create () in
  Metrics.set worker "gc.major_words" 999.0;
  let doc =
    Obs.Prometheus.render
      ~help:(fun n ->
        if n = "serve.requests" then Some "requests \"served\"\nwith\\escapes"
        else None)
      [ ([], reg); ([ ("domain", "0") ], worker) ]
  in
  let types, samples =
    try parse_exposition doc
    with Bad_exposition m -> Alcotest.failf "bad exposition: %s\n%s" m doc
  in
  check Alcotest.(option string) "counter kind" (Some "counter")
    (Hashtbl.find_opt types "serve_requests_total");
  check Alcotest.(option string) "gauge kind" (Some "gauge")
    (Hashtbl.find_opt types "gc_major_words");
  check Alcotest.(option string) "histogram kind" (Some "histogram")
    (Hashtbl.find_opt types "serve_request_seconds");
  (match find_sample samples "serve_requests_total" [] with
  | Some s -> check (Alcotest.float 0.0) "counter value" 7.0 s.v
  | None -> Alcotest.fail "serve_requests_total sample missing");
  (match find_sample samples "gc_major_words" [ ("domain", "0") ] with
  | Some s -> check (Alcotest.float 0.0) "labelled gauge" 999.0 s.v
  | None -> Alcotest.fail "labelled gc_major_words missing");
  (* histogram: cumulative buckets are nondecreasing and +Inf = count *)
  let buckets =
    List.filter (fun s -> s.sname = "serve_request_seconds_bucket") samples
  in
  check Alcotest.int "one bucket per bound plus +Inf"
    (Array.length Metrics.bucket_bounds + 1)
    (List.length buckets);
  let monotone =
    let vs = List.map (fun s -> s.v) buckets in
    List.for_all2 ( <= )
      (List.filteri (fun i _ -> i < List.length vs - 1) vs)
      (List.tl vs)
  in
  check Alcotest.bool "buckets cumulative" true monotone;
  (match
     ( find_sample samples "serve_request_seconds_count" [],
       List.find_opt
         (fun s ->
           s.sname = "serve_request_seconds_bucket"
           && s.labels = [ ("le", "+Inf") ])
         samples )
   with
  | Some c, Some inf ->
      check (Alcotest.float 0.0) "+Inf bucket = count" c.v inf.v;
      check (Alcotest.float 0.0) "count counts the overflow too" 3.0 c.v
  | _ -> Alcotest.fail "histogram _count or +Inf bucket missing")

let test_mangling () =
  check Alcotest.string "dots to underscores" "serve_request_seconds"
    (Obs.Prometheus.mangle "serve.request.seconds");
  check Alcotest.string "counter suffix" "serve_requests_total"
    (Obs.Prometheus.counter_name "serve.requests");
  check Alcotest.string "no double suffix" "x_total"
    (Obs.Prometheus.counter_name "x_total");
  check Alcotest.string "leading digit guarded" "_9lives"
    (Obs.Prometheus.mangle "9lives")

(* ------------------------------------------------------------------ *)
(* Flight-recorder ring. *)

let rec_i i =
  {
    Omqd.Telemetry.ts_s = float_of_int i;
    op = "eval";
    outcome = "ok";
    worker = i mod 2;
    session = i;
    dur_s = 0.001;
  }

let test_flight_eviction () =
  let t = Omqd.Telemetry.create ~capacity:4 () in
  for i = 0 to 9 do
    Omqd.Telemetry.record t (rec_i i)
  done;
  check Alcotest.int "total" 10 (Omqd.Telemetry.total t);
  check Alcotest.int "dropped" 6 (Omqd.Telemetry.dropped t);
  check
    Alcotest.(list int)
    "newest four, oldest first" [ 6; 7; 8; 9 ]
    (List.map
       (fun r -> r.Omqd.Telemetry.session)
       (Omqd.Telemetry.records t));
  Omqd.Telemetry.set_enabled t false;
  Omqd.Telemetry.record t (rec_i 10);
  check Alcotest.int "disabled: no record" 10 (Omqd.Telemetry.total t);
  (* the dump is one parseable JSON object with the documented keys *)
  match
    P.Json.parse
      (P.Json.render (Omqd.Telemetry.to_json ~extra:[ ("x", P.Json.Num 1.) ] t))
  with
  | Error m -> Alcotest.failf "dump does not parse: %s" m
  | Ok j ->
      check Alcotest.bool "extra member" true (P.Json.member "x" j <> None);
      check
        Alcotest.(option bool)
        "flight_total" (Some true)
        (Option.map (( = ) (P.Json.Num 10.0)) (P.Json.member "flight_total" j));
      (match P.Json.member "flight" j with
      | Some (P.Json.Arr rs) -> check Alcotest.int "flight length" 4 (List.length rs)
      | _ -> Alcotest.fail "flight array missing")

(* ------------------------------------------------------------------ *)
(* Live daemon: /metrics advances, dump_telemetry has the shape. *)

let onto = "Hand << exists hasFinger . Thumb"
let data = "Hand(h)\nThumb(t)\nhasFinger(h, t)"
let query = "q(x) <- Thumb(x)"

let open_req = P.Open_session { ontology = onto; data; query; max_extra = 2 }

let eval_req session =
  P.Eval { session; budget = P.no_budget; want_stats = false }

(* Facts over the session's own elements, so every update takes the
   delta path rather than a reopen. *)
let update_facts =
  [ "Thumb(h)"; "Hand(t)"; "hasFinger(t, h)"; "hasFinger(h, h)"; "hasFinger(t, t)" ]

let http_get ~port path =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      let req = Printf.sprintf "GET %s HTTP/1.0\r\n\r\n" path in
      let _ = Unix.write_substring fd req 0 (String.length req) in
      let buf = Buffer.create 4096 in
      let chunk = Bytes.create 4096 in
      let rec drain () =
        match Unix.read fd chunk 0 (Bytes.length chunk) with
        | 0 -> ()
        | n ->
            Buffer.add_subbytes buf chunk 0 n;
            drain ()
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> drain ()
      in
      drain ();
      let doc = Buffer.contents buf in
      (* split the status line and the body at the blank line *)
      let status =
        match String.index_opt doc '\r' with
        | Some i -> String.sub doc 0 i
        | None -> doc
      in
      let rec find_blank i =
        if i + 3 >= String.length doc then None
        else if String.sub doc i 4 = "\r\n\r\n" then Some (i + 4)
        else find_blank (i + 1)
      in
      match find_blank 0 with
      | Some b -> (status, String.sub doc b (String.length doc - b))
      | None -> Alcotest.failf "no HTTP header/body split in %S" doc)

let test_daemon_scrape () =
  let port = 20000 + (Unix.getpid () mod 20000) in
  let path =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "omqd-telemetry-%d.sock" (Unix.getpid ()))
  in
  let addr = Omqd.Daemon.Unix_path path in
  let cfg =
    Omqd.Daemon.config ~addr ~jobs:2
      ~metrics_addr:(Omqd.Daemon.Tcp ("127.0.0.1", port))
      ()
  in
  let result = ref (Ok ()) in
  let th = Thread.create (fun () -> result := Omqd.Daemon.run cfg) () in
  Fun.protect
    ~finally:(fun () ->
      (match Omqd.Client.connect ~attempts:1 addr with
      | Error _ -> ()
      | Ok c ->
          ignore (Omqd.Client.call c P.Shutdown);
          Omqd.Client.close c);
      Thread.join th;
      match !result with
      | Ok () -> ()
      | Error m -> Alcotest.failf "daemon failed: %s" m)
    (fun () ->
      match Omqd.Client.connect addr with
      | Error m -> Alcotest.failf "connect: %s" m
      | Ok c ->
          Fun.protect
            ~finally:(fun () -> Omqd.Client.close c)
            (fun () ->
              let session =
                match Omqd.Client.call c open_req with
                | Ok (P.Opened { session }) -> session
                | Ok r -> Alcotest.failf "open: %s" (P.render_response r)
                | Error m -> Alcotest.failf "open: %s" m
              in
              let eval () =
                match Omqd.Client.call c (eval_req session) with
                | Ok (P.Evaled _) -> ()
                | Ok r -> Alcotest.failf "eval: %s" (P.render_response r)
                | Error m -> Alcotest.failf "eval: %s" m
              in
              eval ();
              let served_total () =
                let status, body = http_get ~port "/metrics" in
                check Alcotest.bool "scrape is 200 OK" true
                  (String.length status >= 12
                  && String.sub status 9 3 = "200");
                let _, samples =
                  try parse_exposition body
                  with Bad_exposition m ->
                    Alcotest.failf "bad exposition: %s\n%s" m body
                in
                match find_sample samples "serve_requests_total" [] with
                | Some s -> s.v
                | None -> Alcotest.fail "serve_requests_total missing"
              in
              let before = served_total () in
              eval ();
              eval ();
              let after = served_total () in
              check Alcotest.bool "serve_requests_total advances" true
                (after >= before +. 2.0);
              (* per-domain GC gauges are present *)
              let _, samples = parse_exposition (snd (http_get ~port "/metrics")) in
              check Alcotest.bool "per-domain gc gauge" true
                (find_sample samples "gc_major_words" [ ("domain", "0") ]
                <> None);
              (* every acked update is counted on the loop before its
                 ack is written: n delta inserts and n delta retracts
                 (facts over the session's own elements) advance both
                 views by exactly n. The loop registry is the calling
                 domain's, shared with earlier tests in this process,
                 so the views are compared before and after. *)
              let n = List.length update_facts in
              let scraped () =
                let _, samples =
                  parse_exposition (snd (http_get ~port "/metrics"))
                in
                fun name ->
                  match find_sample samples name [] with
                  | Some s -> int_of_float s.v
                  | None -> 0
              in
              let counted () =
                match Omqd.Client.call c P.Stats with
                | Ok (P.Server_stats s) -> (
                    fun name ->
                      match P.Json.member name s.counters with
                      | Some (P.Json.Num v) -> int_of_float v
                      | _ -> 0)
                | Ok r -> Alcotest.failf "stats: %s" (P.render_response r)
                | Error m -> Alcotest.failf "stats: %s" m
              in
              let scraped0 = scraped () and counted0 = counted () in
              List.iter
                (fun facts ->
                  match
                    Omqd.Client.call c (P.Insert_facts { session; facts })
                  with
                  | Ok (P.Inserted _) -> ()
                  | Ok r -> Alcotest.failf "insert: %s" (P.render_response r)
                  | Error m -> Alcotest.failf "insert: %s" m)
                update_facts;
              List.iter
                (fun facts ->
                  match
                    Omqd.Client.call c (P.Retract_facts { session; facts })
                  with
                  | Ok (P.Retracted _) -> ()
                  | Ok r -> Alcotest.failf "retract: %s" (P.render_response r)
                  | Error m -> Alcotest.failf "retract: %s" m)
                update_facts;
              let scraped1 = scraped () and counted1 = counted () in
              List.iter
                (fun (what, name, want) ->
                  check Alcotest.int ("scraped " ^ what) want
                    (scraped1 (Obs.Prometheus.counter_name name)
                    - scraped0 (Obs.Prometheus.counter_name name));
                  check Alcotest.int ("stats counters " ^ what) want
                    (counted1 name - counted0 name))
                [
                  ("delta inserts", "serve.delta.inserts", n);
                  ("delta retracts", "serve.delta.retracts", n);
                  ("reopens", "serve.delta.reopens", 0);
                ];
              (* 404 and 405 are real responses, not dropped conns *)
              let status404, _ = http_get ~port "/nope" in
              check Alcotest.bool "404 on unknown path" true
                (String.sub status404 9 3 = "404");
              (* the dump_telemetry wire op has the documented shape *)
              (match Omqd.Client.call c P.Dump_telemetry with
              | Ok (P.Telemetry { telemetry }) ->
                  List.iter
                    (fun k ->
                      check Alcotest.bool (k ^ " present") true
                        (P.Json.member k telemetry <> None))
                    [
                      "version"; "uptime_s"; "served"; "p50_ms"; "workers";
                      "flight_total"; "flight"; "flight_dropped";
                    ];
                  (match P.Json.member "workers" telemetry with
                  | Some (P.Json.Arr rows) ->
                      check Alcotest.int "one row per worker" 2
                        (List.length rows)
                  | _ -> Alcotest.fail "workers is not an array")
              | Ok r ->
                  Alcotest.failf "dump_telemetry: %s" (P.render_response r)
              | Error m -> Alcotest.failf "dump_telemetry: %s" m);
              (* extended stats: version + counters *)
              match Omqd.Client.call c P.Stats with
              | Ok (P.Server_stats s) ->
                  check Alcotest.string "stats version" Omqd.Daemon.version
                    s.server_version;
                  check Alcotest.bool "uptime nonnegative" true
                    (s.uptime_s >= 0.0);
                  check Alcotest.bool "counters are an object" true
                    (match s.counters with P.Json.Obj _ -> true | _ -> false)
              | Ok r -> Alcotest.failf "stats: %s" (P.render_response r)
              | Error m -> Alcotest.failf "stats: %s" m))

let suite =
  [
    QCheck_alcotest.to_alcotest test_quantile_bounds;
    Alcotest.test_case "exposition grammar + value round-trip" `Quick
      test_exposition_round_trip;
    Alcotest.test_case "prometheus name mangling" `Quick test_mangling;
    Alcotest.test_case "flight ring evicts oldest, counts drops" `Quick
      test_flight_eviction;
    Alcotest.test_case "live daemon: scrape advances, dump shape" `Quick
      test_daemon_scrape;
  ]
