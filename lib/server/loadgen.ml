module P = Omq.Protocol

type spec = { open_req : P.request; expected : string }

type summary = {
  clients : int;
  queries_per_client : int;
  total : int;
  ok : int;
  tripped : int;
  errors : int;
  mismatches : int;
  connect_failures : int;
  io_failures : int;
  seconds : float;
  throughput_rps : float;
  mean_ms : float;
  p50_ms : float;
  p95_ms : float;
  p99_ms : float;
  max_ms : float;
}

type cstate = {
  client : Client.t;
  spec : spec;
  mutable session : int;
  mutable got : int;  (** evals answered *)
  mutable sent_at : float;
  mutable phase : [ `Opening | `Running | `Done ];
}

(* Latencies go through the same bucketed histogram as the daemon's
   serve.request.seconds — one code path for quantiles on both sides of
   the wire, at O(buckets) memory instead of one float per request. *)
let lat_metric = "loadgen.request.seconds"

(* Only setup errors that make the whole run meaningless are fatal
   (unresolvable address, every response stalled); a single client's
   connect or I/O failure is counted and the rest of the fleet keeps
   going — chaos runs measure degradation, they must not abort on the
   first injected fault. *)
let run addr specs ~queries =
  if specs = [] then Error "loadgen: no clients"
  else if queries < 1 then Error "loadgen: queries must be >= 1"
  else
    match Daemon.sockaddr_of addr with
    | exception Not_found ->
        Error (Fmt.str "cannot resolve %a" Daemon.pp_addr addr)
    | _ ->
        let connect_failures = ref 0 and io_failures = ref 0 in
        let clients =
          List.filter_map
            (fun spec ->
              match Client.connect addr with
              | Error _ ->
                  incr connect_failures;
                  None
              | Ok client ->
                  Some
                    {
                      client;
                      spec;
                      session = -1;
                      got = 0;
                      sent_at = 0.0;
                      phase = `Opening;
                    })
            specs
        in
        let reg = Obs.Metrics.create () in
        let ok = ref 0 and tripped = ref 0 and errors = ref 0 in
        let mismatches = ref 0 in
        let t0 = Obs.Clock.now () in
        let finish c =
          c.phase <- `Done;
          Client.close c.client
        in
        (* An I/O or framing failure kills this one client, not the run. *)
        let io_fail c =
          incr io_failures;
          finish c
        in
        let send c req =
          match Client.send c.client req with Ok () -> () | Error _ -> io_fail c
        in
        let send_eval c =
          c.sent_at <- Obs.Clock.now ();
          send c
            (P.Eval
               { session = c.session; budget = P.no_budget; want_stats = false })
        in
        List.iter (fun c -> send c c.spec.open_req) clients;
        let handle_line c line =
          match (P.parse_response line, c.phase) with
          | _, `Done -> ()
          | Error _, _ -> io_fail c
          | Ok (_, P.Opened { session }), `Opening ->
              c.session <- session;
              c.phase <- `Running;
              send_eval c
          | Ok (_, P.Rejected _), `Opening ->
              incr errors;
              finish c
          | Ok _, `Opening -> io_fail c
          | Ok (_, resp), `Running ->
              Obs.Metrics.observe reg lat_metric (Obs.Clock.now () -. c.sent_at);
              (match resp with
              | P.Evaled _ -> incr ok
              | P.Partial _ | P.Decide_partial _ -> incr tripped
              | _ -> incr errors);
              if P.render_response resp <> c.spec.expected then incr mismatches;
              c.got <- c.got + 1;
              if c.got >= queries then finish c else send_eval c
        in
        let process c =
          match Client.read_lines c.client with
          | Ok lines -> List.iter (handle_line c) lines
          | Error _ -> io_fail c
        in
        let rec loop () =
          let live = List.filter (fun c -> c.phase <> `Done) clients in
          if live = [] then Ok ()
          else
            match
              Unix.select (List.map (fun c -> Client.fd c.client) live) [] [] 30.0
            with
            | [], _, _ ->
                List.iter (fun c -> Client.close c.client) live;
                Error "daemon stalled: no response within 30s"
            | rs, _, _ ->
                List.iter
                  (fun c -> if List.mem (Client.fd c.client) rs then process c)
                  live;
                loop ()
            | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
        in
        Result.map
          (fun () ->
            let seconds = Obs.Clock.now () -. t0 in
            let total, sum, _, max_v =
              Option.value ~default:(0, 0.0, 0.0, 0.0)
                (Obs.Metrics.histogram_stats reg lat_metric)
            in
            let ms x = 1000.0 *. x in
            let q p =
              ms
                (Option.value ~default:0.0
                   (Obs.Metrics.quantile reg lat_metric p))
            in
            {
              clients = List.length specs;
              queries_per_client = queries;
              total;
              ok = !ok;
              tripped = !tripped;
              errors = !errors;
              mismatches = !mismatches;
              connect_failures = !connect_failures;
              io_failures = !io_failures;
              seconds;
              throughput_rps =
                (if seconds > 0.0 then float_of_int total /. seconds else 0.0);
              mean_ms =
                (if total = 0 then 0.0 else ms (sum /. float_of_int total));
              p50_ms = q 0.50;
              p95_ms = q 0.95;
              p99_ms = q 0.99;
              max_ms = (if total = 0 then 0.0 else ms max_v);
            })
          (loop ())
