(* The wire codec: random round-trips through the hand-rolled JSON
   layer, rejection of malformed/oversized/wrong-version frames, and the
   literal renderings the CLI compatibility contract pins down. *)

module P = Omq.Protocol

let check = Alcotest.(check bool)
let check_str = Alcotest.(check string)

(* ---------------------------------------------------------------- *)
(* Generators *)

let gen_name =
  QCheck.Gen.(
    oneof
      [
        string_size ~gen:(char_range 'a' 'z') (int_range 1 8);
        (* exercise escaping: quotes, backslashes, control bytes,
           high bytes *)
        string_size
          ~gen:
            (oneofl
               [ 'a'; '"'; '\\'; '\n'; '\t'; '\r'; '\001'; '\xc3'; '\xa9'; ' ' ])
          (int_range 0 10);
      ])

let gen_budget =
  QCheck.Gen.(
    let opt g = oneof [ return None; map Option.some g ] in
    map3
      (fun timeout_s fuel max_clauses -> { P.timeout_s; fuel; max_clauses })
      (opt (map (fun f -> Float.abs f) (float_bound_inclusive 100.0)))
      (opt (int_bound 100000))
      (opt (int_bound 100000)))

let gen_request =
  QCheck.Gen.(
    oneof
      [
        map2
          (fun (o, d) (q, m) ->
            P.Open_session { ontology = o; data = d; query = q; max_extra = m })
          (pair gen_name gen_name)
          (pair gen_name (int_bound 4));
        map (fun session -> P.Close_session { session }) small_nat;
        map3
          (fun session budget want_stats ->
            P.Eval { session; budget; want_stats })
          small_nat gen_budget bool;
        map (fun ontology -> P.Classify { ontology }) gen_name;
        map2
          (fun session facts -> P.Insert_facts { session; facts })
          small_nat gen_name;
        map2
          (fun session facts -> P.Retract_facts { session; facts })
          small_nat gen_name;
        return P.Stats;
        return P.Dump_telemetry;
        return P.Shutdown;
      ])

let gen_reason = QCheck.Gen.oneofl [ Reasoner.Budget.Timeout; Reasoner.Budget.Fuel ]

let gen_kind =
  QCheck.Gen.oneofl
    [
      P.Bad_frame;
      P.Bad_version;
      P.Bad_request;
      P.Unknown_session;
      P.Frame_too_large;
      P.Shutting_down;
      P.Internal;
    ]

(* Answers respecting the codec invariants (inconsistent -> no tuples;
   boolean -> zero or one empty tuple). *)
let gen_answers =
  QCheck.Gen.(
    bool >>= fun consistent ->
    bool >>= fun boolean ->
    (if not consistent then return []
     else if boolean then oneofl [ []; [ [] ] ]
     else small_list (list_size (int_range 1 3) gen_name))
    >>= fun tuples -> return { P.consistent; boolean; tuples })

let gen_stats =
  QCheck.Gen.(
    oneof
      [
        return None;
        return (Some P.Json.Null);
        map
          (fun n ->
            Some (P.Json.Obj [ ("solves", P.Json.Num (float_of_int n)) ]))
          small_nat;
      ])

let gen_response =
  QCheck.Gen.(
    oneof
      [
        map (fun session -> P.Opened { session }) small_nat;
        map (fun session -> P.Closed { session }) small_nat;
        map2 (fun result stats -> P.Evaled { result; stats }) gen_answers
          gen_stats;
        map3
          (fun reason (certified, resume_from) stats ->
            P.Partial { reason; certified; resume_from; stats })
          gen_reason
          (pair
             (small_list (list_size (int_range 1 2) gen_name))
             (oneof
                [ return None; map Option.some (small_list gen_name) ]))
          gen_stats;
        map3
          (fun (dl_name, depth) (fragment, status) (evidence_fragment, source) ->
            P.Classified
              { dl_name; depth; fragment; status; evidence_fragment; source })
          (pair gen_name small_nat)
          (pair (oneof [ return None; map Option.some gen_name ]) gen_name)
          (pair gen_name gen_name);
        map (fun n -> P.Decided { verdict = `Ptime n }) small_nat;
        map (fun w -> P.Decided { verdict = `Conp_hard w }) gen_name;
        map2
          (fun reason checked -> P.Decide_partial { reason; checked })
          gen_reason small_nat;
        map2
          (fun session total_facts -> P.Inserted { session; total_facts })
          small_nat small_nat;
        map2
          (fun session total_facts -> P.Retracted { session; total_facts })
          small_nat small_nat;
        map3
          (fun uptime_s (sessions, served) ((errors, inflight), (jb, je)) ->
            P.Server_stats
              {
                uptime_s;
                server_version = "0.8.0";
                sessions;
                served;
                errors;
                inflight;
                journal_bytes = jb;
                journal_entries = je;
                counters =
                  P.Json.Obj [ ("serve.requests", P.Json.Num 3.0) ];
                reasoner = P.Json.Obj [ ("solves", P.Json.Num 1.0) ];
              })
          (map Float.abs (float_bound_inclusive 1e6))
          (pair small_nat small_nat)
          (pair (pair small_nat small_nat) (pair small_nat small_nat));
        map
          (fun n ->
            P.Telemetry
              { telemetry = P.Json.Obj [ ("flight_total", P.Json.Num (float_of_int n)) ] })
          small_nat;
        return P.Shutdown_ack;
        map2 (fun kind message -> P.Rejected { kind; message }) gen_kind
          gen_name;
      ])

(* ---------------------------------------------------------------- *)
(* Round-trip properties *)

let test_request_roundtrip =
  QCheck.Test.make ~name:"request render/parse round-trip" ~count:500
    (QCheck.make gen_request ~print:(Fmt.str "%a" P.pp_request))
    (fun req ->
      match P.parse_request (P.render_request req) with
      | Ok (None, req') -> P.equal_request req req'
      | _ -> false)

let test_request_roundtrip_id =
  QCheck.Test.make ~name:"request round-trip preserves id" ~count:200
    (QCheck.make QCheck.Gen.(pair small_nat gen_request))
    (fun (id, req) ->
      match P.parse_request (P.render_request ~id req) with
      | Ok (Some id', req') -> id = id' && P.equal_request req req'
      | _ -> false)

let test_response_roundtrip =
  QCheck.Test.make ~name:"response render/parse round-trip" ~count:500
    (QCheck.make gen_response ~print:(Fmt.str "%a" P.pp_response))
    (fun resp ->
      match P.parse_response (P.render_response resp) with
      | Ok (None, resp') -> P.equal_response resp resp'
      | _ -> false)

let test_response_roundtrip_id =
  QCheck.Test.make ~name:"response round-trip preserves id" ~count:200
    (QCheck.make QCheck.Gen.(pair small_nat gen_response))
    (fun (id, resp) ->
      match P.parse_response (P.render_response ~id resp) with
      | Ok (Some id', resp') -> id = id' && P.equal_response resp resp'
      | _ -> false)

let test_json_roundtrip =
  let gen_json =
    QCheck.Gen.(
      sized @@ fix (fun self n ->
          let leaf =
            oneof
              [
                return P.Json.Null;
                map (fun b -> P.Json.Bool b) bool;
                map (fun f -> P.Json.Num f) (float_bound_inclusive 1e9);
                map (fun i -> P.Json.Num (float_of_int i)) small_signed_int;
                map (fun s -> P.Json.Str s) gen_name;
              ]
          in
          if n = 0 then leaf
          else
            oneof
              [
                leaf;
                map (fun xs -> P.Json.Arr xs) (list_size (int_bound 4) (self (n / 2)));
                map
                  (fun kvs -> P.Json.Obj kvs)
                  (list_size (int_bound 4) (pair gen_name (self (n / 2))));
              ]))
  in
  QCheck.Test.make ~name:"Json render/parse round-trip" ~count:500
    (QCheck.make gen_json ~print:Obs.Json.render)
    (fun j ->
      match Obs.Json.parse (Obs.Json.render j) with
      | Ok j' -> Obs.Json.equal j j'
      | Error _ -> false)

(* ---------------------------------------------------------------- *)
(* Malformed and wrong-version frames *)

let kind_of = function
  | Error (_, (kind, _)) -> Some kind
  | Ok _ -> None

let test_malformed () =
  let req s = kind_of (P.parse_request s) in
  Alcotest.(check (option string))
    "garbage is bad_frame" (Some "bad_frame")
    (Option.map P.error_kind_name (req "this is not json"));
  Alcotest.(check (option string))
    "trailing garbage is bad_frame" (Some "bad_frame")
    (Option.map P.error_kind_name (req "{\"v\":1,\"op\":\"stats\"} trailing"));
  Alcotest.(check (option string))
    "missing version is bad_version" (Some "bad_version")
    (Option.map P.error_kind_name (req "{\"op\":\"stats\"}"));
  Alcotest.(check (option string))
    "future version is bad_version" (Some "bad_version")
    (Option.map P.error_kind_name (req "{\"v\":99,\"op\":\"stats\"}"));
  Alcotest.(check (option string))
    "non-object is bad_frame" (Some "bad_frame")
    (Option.map P.error_kind_name (req "[1,2,3]"));
  Alcotest.(check (option string))
    "unknown op is bad_request" (Some "bad_request")
    (Option.map P.error_kind_name (req "{\"v\":1,\"op\":\"frobnicate\"}"));
  Alcotest.(check (option string))
    "missing field is bad_request" (Some "bad_request")
    (Option.map P.error_kind_name (req "{\"v\":1,\"op\":\"eval\"}"));
  Alcotest.(check (option string))
    "ill-typed field is bad_request" (Some "bad_request")
    (Option.map P.error_kind_name
       (req "{\"v\":1,\"op\":\"eval\",\"session\":\"zero\"}"));
  (* the id is salvaged from broken frames so servers can echo it *)
  (match P.parse_request "{\"v\":99,\"id\":7,\"op\":\"stats\"}" with
  | Error (Some 7, (P.Bad_version, _)) -> ()
  | _ -> Alcotest.fail "id not salvaged from bad-version frame");
  (* deep nesting is rejected, not a stack overflow *)
  let deep = String.concat "" (List.init 600 (fun _ -> "[")) in
  check "deep nesting rejected" true (Result.is_error (P.Json.parse deep));
  (* unknown fields are ignored (forward compatibility) *)
  match P.parse_request "{\"v\":1,\"op\":\"stats\",\"future\":42}" with
  | Ok (None, P.Stats) -> ()
  | _ -> Alcotest.fail "unknown field should be ignored"

(* Version leniency: decoding accepts the whole [min_version, version]
   range, so v1 clients keep working against a v2 daemon; rendering is
   always at [version]. *)
let test_version_leniency () =
  check "speaks a range" true (P.min_version < P.version);
  (match P.parse_request "{\"v\":1,\"op\":\"stats\"}" with
  | Ok (None, P.Stats) -> ()
  | _ -> Alcotest.fail "v1 frame should decode");
  (match
     P.parse_request
       "{\"v\":2,\"op\":\"retract_facts\",\"session\":3,\"facts\":\"A(x)\"}"
   with
  | Ok (None, P.Retract_facts { session = 3; facts = "A(x)" }) -> ()
  | _ -> Alcotest.fail "v2 retract_facts frame should decode");
  (match P.parse_request "{\"v\":0,\"op\":\"stats\"}" with
  | Error (_, (P.Bad_version, _)) -> ()
  | _ -> Alcotest.fail "v0 frame should be rejected");
  match
    P.parse_response "{\"v\":2,\"type\":\"retract_facts\",\"outcome\":\"ok\",\"session\":3,\"total_facts\":7}"
  with
  | Ok (None, P.Retracted { session = 3; total_facts = 7 }) -> ()
  | _ -> Alcotest.fail "retracted response should decode"

let test_json_corners () =
  (match P.Json.parse " [1, 2.5, \"a\\u00e9\", true, null] " with
  | Ok
      (P.Json.Arr
        [
          P.Json.Num 1.0;
          P.Json.Num 2.5;
          P.Json.Str "a\xc3\xa9";
          P.Json.Bool true;
          P.Json.Null;
        ]) ->
      ()
  | Ok j -> Alcotest.failf "unexpected parse: %s" (P.Json.render j)
  | Error m -> Alcotest.failf "parse failed: %s" m);
  check_str "integral numbers render bare" "5" (P.Json.render (P.Json.Num 5.0));
  check_str "empty object" "{}" (P.Json.render (P.Json.Obj []));
  check "unterminated string rejected" true
    (Result.is_error (P.Json.parse "\"abc"));
  check "lone minus rejected" true (Result.is_error (P.Json.parse "-"));
  check "empty input rejected" true (Result.is_error (P.Json.parse "  "))

(* ---------------------------------------------------------------- *)
(* The CLI byte-compatibility contract: these exact renderings are what
   both `omq_tool eval --json` and the daemon emit (the daemon adds only
   the echoed id after "v"). *)

let test_literal_renderings () =
  check_str "eval ok"
    "{\"v\":2,\"type\":\"eval\",\"outcome\":\"ok\",\"consistent\":true,\"boolean\":false,\"count\":1,\"answers\":[[\"h\"]]}"
    (P.render_response
       (P.Evaled
          {
            result = { P.consistent = true; boolean = false; tuples = [ [ "h" ] ] };
            stats = None;
          }));
  check_str "boolean eval renders certain flag"
    "{\"v\":2,\"type\":\"eval\",\"outcome\":\"ok\",\"consistent\":true,\"boolean\":true,\"certain\":true}"
    (P.render_response
       (P.Evaled
          {
            result = { P.consistent = true; boolean = true; tuples = [ [] ] };
            stats = None;
          }));
  check_str "tripped eval"
    "{\"v\":2,\"id\":4,\"type\":\"eval\",\"outcome\":\"out_of_fuel\",\"certified\":[],\"resume_from\":[\"h\"]}"
    (P.render_response ~id:4
       (P.Partial
          {
            reason = Reasoner.Budget.Fuel;
            certified = [];
            resume_from = Some [ "h" ];
            stats = None;
          }));
  check_str "typed error"
    "{\"v\":2,\"type\":\"error\",\"outcome\":\"error\",\"error\":\"unknown_session\",\"message\":\"no session 42\"}"
    (P.render_response
       (P.Rejected { kind = P.Unknown_session; message = "no session 42" }));
  check_str "open_session request"
    "{\"v\":2,\"id\":0,\"op\":\"open_session\",\"ontology\":\"O\",\"data\":\"D\",\"query\":\"Q\",\"max_extra\":2}"
    (P.render_request ~id:0
       (P.Open_session
          { ontology = "O"; data = "D"; query = "Q"; max_extra = 2 }))

let suite =
  [
    QCheck_alcotest.to_alcotest test_request_roundtrip;
    QCheck_alcotest.to_alcotest test_request_roundtrip_id;
    QCheck_alcotest.to_alcotest test_response_roundtrip;
    QCheck_alcotest.to_alcotest test_response_roundtrip_id;
    QCheck_alcotest.to_alcotest test_json_roundtrip;
    Alcotest.test_case "malformed frames" `Quick test_malformed;
    Alcotest.test_case "version leniency" `Quick test_version_leniency;
    Alcotest.test_case "json corners" `Quick test_json_corners;
    Alcotest.test_case "literal renderings" `Quick test_literal_renderings;
  ]
