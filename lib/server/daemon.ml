(* The serve shell: every syscall of the daemon, and no decision.

   This domain owns the listening sockets, every connection, the
   journal file, the signal flags and the clock; [Core] owns the
   serving state and decides. Each loop iteration selects, drains the
   worker service's completion queue, feeds [Core.step] a tick (time
   and busy stamps), the completions, any signal, then accepts, flushes
   and reads, and performs the actions every step returns. A one-byte
   self-pipe write (the service's [wakeup], or a signal handler) makes
   [select] return promptly. Wire and /metrics connections share one
   record and one accept/read/flush/close path; only [Core] tells them
   apart. *)

module P = Omq.Protocol

type addr = Unix_path of string | Tcp of string * int

let pp_addr ppf = function
  | Unix_path p -> Fmt.pf ppf "unix:%s" p
  | Tcp (h, p) -> Fmt.pf ppf "%s:%d" h p

type config = {
  addr : addr;
  jobs : int;
  caps : P.budget_spec;
  max_frame : int;
  trace : (Obs.Export.format * string) option;
  log : bool;
  journal : string option;
  journal_compact : int;
  supervise : float option;
  max_inflight : int option;
  max_outbuf : int;
  shutdown_grace : float;
  signals : bool;
  metrics_addr : addr option;
  telemetry : bool;
  flight_dump : string option;
  flight_capacity : int;
}

let version = Core.version
let default_max_frame = Core.default_max_frame
let default_max_outbuf = Core.default_max_outbuf
let default_journal_compact = Core.default_journal_compact
let default_shutdown_grace = Core.default_shutdown_grace

let config ~addr ?(jobs = 1) ?(caps = P.no_budget)
    ?(max_frame = default_max_frame) ?trace ?(log = false) ?journal
    ?(journal_compact = default_journal_compact) ?supervise ?max_inflight
    ?(max_outbuf = default_max_outbuf)
    ?(shutdown_grace = default_shutdown_grace) ?(signals = false)
    ?metrics_addr ?(telemetry = true) ?flight_dump
    ?(flight_capacity = Telemetry.default_capacity) () =
  {
    addr;
    jobs;
    caps;
    max_frame;
    trace;
    log;
    journal;
    journal_compact;
    supervise;
    max_inflight;
    max_outbuf;
    shutdown_grace;
    signals;
    metrics_addr;
    telemetry;
    flight_dump;
    flight_capacity;
  }

(* GC sampling cadence on a worker: job 0, then every Nth. The counter
   is DLS so each worker domain ticks its own. *)
let gc_sample_every = 32
let gc_sample_tick = Domain.DLS.new_key (fun () -> ref 0)

let tick_gc_sample () =
  let c = Domain.DLS.get gc_sample_tick in
  let n = !c in
  c := n + 1;
  n mod gc_sample_every = 0

(* A job as it runs on its worker: under a private trace collector when
   tracing, and with the worker's GC numbers on a sampled job. *)
let run_job ~tracing ~telemetry ~token ~worker ~op job () =
  let reply, trace =
    if tracing then
      let r, col =
        Obs.Trace.collect (fun () ->
            Obs.Trace.with_span ~attrs:[ ("op", Obs.Trace.Str op) ] "serve.request"
              (fun () ->
                let r = job () in
                Obs.Trace.add_attr "outcome" (Obs.Trace.Str (Core.outcome r));
                r))
      in
      (r, Some col)
    else (job (), None)
  in
  let gc =
    if telemetry && tick_gc_sample () then
      let q = Gc.quick_stat () in
      Some (q.Gc.major_words, float_of_int q.Gc.minor_collections)
    else None
  in
  ({ Core.token; worker; reply; gc }, trace)

let listen_on = function
  | Unix_path path ->
      if Sys.file_exists path then begin
        try Unix.unlink path with Unix.Unix_error _ | Sys_error _ -> ()
      end;
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.bind fd (Unix.ADDR_UNIX path);
      Unix.listen fd 128;
      Unix.set_nonblock fd;
      fd
  | Tcp (host, port) ->
      let ip =
        try Unix.inet_addr_of_string host
        with Failure _ -> (Unix.gethostbyname host).Unix.h_addr_list.(0)
      in
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.setsockopt fd Unix.SO_REUSEADDR true;
      Unix.bind fd (Unix.ADDR_INET (ip, port));
      Unix.listen fd 128;
      Unix.set_nonblock fd;
      fd

let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()

(* Both listeners bind before serving starts: a misconfigured
   --metrics-addr is a startup error, not a silently absent scrape
   endpoint. *)
let bind_both cfg =
  let which = ref cfg.addr in
  try
    let fd = listen_on cfg.addr in
    match cfg.metrics_addr with
    | None -> Ok (fd, None)
    | Some a -> (
        which := a;
        match listen_on a with
        | mfd -> Ok (fd, Some mfd)
        | exception e ->
            close_quietly fd;
            raise e)
  with
  | Unix.Unix_error (e, fn, _) ->
      Error
        (Fmt.str "cannot listen on %a: %s (%s)" pp_addr !which
           (Unix.error_message e) fn)
  | Not_found -> Error (Fmt.str "cannot resolve %a" pp_addr !which)

let set_signal s h =
  try Some (s, Sys.signal s h) with Invalid_argument _ | Sys_error _ -> None

let restore_signals =
  List.iter (fun (s, h) ->
      try Sys.set_signal s h with Invalid_argument _ | Sys_error _ -> ())

(* One connection, wire or HTTP: unsent output and its cursor. *)
type sock = { fd : Unix.file_descr; mutable out : string; mutable pos : int }

let run ?(ready = fun () -> ()) cfg =
  let prev_pipe = Option.to_list (set_signal Sys.sigpipe Sys.Signal_ignore) in
  match bind_both cfg with
  | Error msg ->
      restore_signals prev_pipe;
      Error msg
  | Ok (listen_fd, metrics_fd) ->
      let log = cfg.log in
      let pipe_r, pipe_w = Unix.pipe () in
      Unix.set_nonblock pipe_r;
      Unix.set_nonblock pipe_w;
      let wake_byte = Bytes.make 1 '!' in
      let wakeup () =
        try ignore (Unix.single_write pipe_w wake_byte 0 1)
        with Unix.Unix_error _ -> ()
      in
      (* Signal handlers only flip a flag and nudge the self-pipe; the
         loop turns the flag into a [Signal] event. *)
      let term_flag = ref false and usr1_flag = ref false in
      let handler flag = Sys.Signal_handle (fun _ -> flag := true; wakeup ()) in
      let prev_sigs =
        if cfg.signals then
          List.filter_map Fun.id
            [
              set_signal Sys.sigterm (handler term_flag);
              set_signal Sys.sigint (handler term_flag);
              set_signal Sys.sigusr1 (handler usr1_flag);
            ]
        else []
      in
      let root =
        Option.map
          (fun _ ->
            let c = Obs.Trace.create () in
            Obs.Trace.install c;
            c)
          cfg.trace
      in
      let service =
        Parallel.Service.create ~jobs:cfg.jobs ~wakeup ~clock:Obs.Clock.now ()
      in
      let jobs = Parallel.Service.jobs service in
      let core =
        Core.create ~jobs ~caps:cfg.caps ~max_frame:cfg.max_frame
          ~journal_compact:cfg.journal_compact ?supervise:cfg.supervise
          ?max_inflight:cfg.max_inflight ~max_outbuf:cfg.max_outbuf
          ~shutdown_grace:cfg.shutdown_grace ~telemetry:cfg.telemetry
          ~flight_capacity:cfg.flight_capacity ~metrics:(Obs.Metrics.global ())
          ~now:(Obs.Clock.now ()) ()
      in
      let journal = ref None in
      let socks : (int, sock) Hashtbl.t = Hashtbl.create 31 in
      let next_id = ref 0 in
      let stop = ref false in
      let journal_op f =
        match !journal with
        | None -> Error "no journal"
        | Some j -> (
            try
              f j;
              Ok (Journal.size j)
            with Unix.Unix_error (e, _, _) -> Error (Unix.error_message e))
      in
      let dump_flight doc =
        let doc = Obs.Json.render doc ^ "\n" in
        match cfg.flight_dump with
        | Some path -> (
            try
              let oc = open_out path in
              output_string oc doc;
              close_out oc;
              if log then
                Obs.Log.info "flight recorder dumped"
                  ~fields:[ Obs.Log.Str ("path", path) ]
            with Sys_error m ->
              if log then
                Obs.Log.error "flight dump failed" ~fields:[ Obs.Log.Str ("error", m) ])
        | None ->
            output_string stderr doc;
            flush stderr
      in
      let rec feed ev = List.iter perform (Core.step core ev)
      and perform = function
        | Core.Submit { token; worker; op; job } ->
            Parallel.Service.submit service ~worker
              (run_job ~tracing:(root <> None) ~telemetry:cfg.telemetry ~token
                 ~worker ~op job)
        | Core.Append e ->
            feed (Core.Journaled (journal_op (fun j -> Journal.append j e)))
        | Core.Compact es ->
            let r = journal_op (fun j -> Journal.compact j es) in
            (match r with
            | Error m when log ->
                Obs.Log.error "journal compaction failed"
                  ~fields:[ Obs.Log.Str ("error", m) ]
            | _ -> ());
            feed (Core.Journaled r)
        | Core.Write (id, data) -> (
            match Hashtbl.find_opt socks id with
            | Some k ->
                k.out <-
                  (if k.pos = 0 then k.out
                   else String.sub k.out k.pos (String.length k.out - k.pos))
                  ^ data;
                k.pos <- 0;
                flush id k
            | None -> ())
        | Core.Close id -> (
            match Hashtbl.find_opt socks id with
            | Some k ->
                Hashtbl.remove socks id;
                close_quietly k.fd
            | None -> ())
        | Core.Replace w ->
            ignore (Parallel.Service.replace service ~worker:w);
            if log then
              Obs.Log.warn "worker quarantined" ~fields:[ Obs.Log.Int ("worker", w) ]
        | Core.Dump doc -> dump_flight doc
        | Core.Stop -> stop := true
      (* Send as much unsent output as the socket takes, then report it. *)
      and flush id k =
        let rec go sent =
          let len = String.length k.out - k.pos in
          if len = 0 then Ok sent
          else
            match Unix.write_substring k.fd k.out k.pos len with
            | n ->
                k.pos <- k.pos + n;
                go (sent + n)
            | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
                Ok sent
            | exception Unix.Unix_error (Unix.EINTR, _, _) -> go sent
            | exception Unix.Unix_error _ -> Error ()
        in
        match go 0 with
        | Ok n -> feed (Core.Flushed (id, n))
        | Error () -> feed (Core.Hangup id)
      in
      (* A fresh 64 KiB buffer per readable event. It lands in the major
         heap, and that allocation paces the major GC: hoisting it out
         of [read] raised serve-read throughput by about 40% but its
         peak RSS from 16 to 22 MB (2-vCPU container), past the
         benchmark's bound. It stays until the GC is paced on purpose. *)
      let read id k =
        let chunk = Bytes.create 65536 in
        let rec go () =
          if Hashtbl.mem socks id then
            match Unix.read k.fd chunk 0 (Bytes.length chunk) with
            | 0 -> feed (Core.Hangup id)
            | n ->
                feed (Core.Input (id, Bytes.sub_string chunk 0 n));
                go ()
            | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
            | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
            | exception Unix.Unix_error _ -> feed (Core.Hangup id)
        in
        go ()
      in
      let rec accept ~http lfd =
        match Unix.accept lfd with
        | fd, _ ->
            Unix.set_nonblock fd;
            let id = !next_id in
            incr next_id;
            Hashtbl.replace socks id { fd; out = ""; pos = 0 };
            feed (Core.Connected { conn = id; http });
            accept ~http lfd
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> accept ~http lfd
        | exception Unix.Unix_error _ -> ()
      in
      let drain_pipe () =
        let b = Bytes.create 256 in
        let rec go () =
          match Unix.read pipe_r b 0 (Bytes.length b) with
          | 0 -> ()
          | _ -> go ()
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
          | exception Unix.Unix_error _ -> ()
        in
        go ()
      in
      (* Completions drained before the busy stamps are read, so a job
         that finished is never mistaken for a wedged one; fed after the
         tick, so their latency is measured against this wakeup. *)
      let tick () =
        let done_ = Parallel.Service.drain service in
        let busy =
          Array.init jobs (fun w -> Parallel.Service.busy_since service ~worker:w)
        in
        feed (Core.Tick { now = Obs.Clock.now (); busy });
        List.iter
          (fun (c, trace) ->
            (match (trace, Obs.Trace.active ()) with
            | Some col, Some into ->
                Obs.Trace.absorb
                  ~attrs:[ ("domain", Obs.Trace.Int c.Core.worker) ]
                  ~into col
            | _ -> ());
            feed (Core.Completed c))
          done_;
        if !term_flag then begin
          term_flag := false;
          if log && not (Core.shutting core) then
            Obs.Log.info "signal received, draining";
          feed (Core.Signal `Term)
        end;
        if !usr1_flag then begin
          usr1_flag := false;
          feed (Core.Signal `Usr1)
        end
      in
      let select rds wrs timeout =
        match Unix.select rds wrs [] timeout with
        | rs, ws, _ ->
            if List.mem pipe_r rs then drain_pipe ();
            (rs, ws)
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ([], [])
      in
      (* Startup recovery: replay the journal's live sessions before the
         first accept, so a restarted daemon answers exactly like the
         one that died. *)
      let recover dir =
        let entries, status = Journal.load dir in
        (match status with
        | `Corrupt msg when log ->
            Obs.Log.warn "journal entry skipped" ~fields:[ Obs.Log.Str ("error", msg) ]
        | _ -> ());
        let j = Journal.open_ dir in
        journal := Some j;
        let acts = Core.recover core ~bytes:(Journal.size j) entries in
        let sessions = Core.replaying core in
        let replay () =
          List.iter perform acts;
          while Core.replaying core > 0 do
            ignore (select [ pipe_r ] [] 0.05);
            tick ()
          done
        in
        if sessions = 0 then replay ()
        else
          Obs.Trace.with_span
            ~attrs:
              [
                ("sessions", Obs.Trace.Int sessions);
                ("entries", Obs.Trace.Int (List.length entries));
              ]
            "serve.recovery" replay;
        if log then
          Obs.Log.info "sessions recovered from journal"
            ~fields:
              [
                Obs.Log.Int ("sessions", List.length (Core.live core));
                Obs.Log.Str ("journal", dir);
              ]
      in
      if log then
        Obs.Log.info "listening"
          ~fields:
            ([
               Obs.Log.Str ("addr", Fmt.str "%a" pp_addr cfg.addr);
               Obs.Log.Int ("workers", jobs);
             ]
            @ Option.fold ~none:[]
                ~some:(fun a -> [ Obs.Log.Str ("metrics_addr", Fmt.str "%a" pp_addr a) ])
                cfg.metrics_addr);
      let listeners =
        (listen_fd, false)
        :: Option.fold ~none:[] ~some:(fun m -> [ (m, true) ]) metrics_fd
      in
      let rec loop () =
        if not !stop then begin
          let open_ = if Core.shutting core then [] else listeners in
          let all = Hashtbl.fold (fun id k acc -> (id, k) :: acc) socks [] in
          let timeout =
            match cfg.supervise with
            | Some d when Core.in_flight core > 0 ->
                Float.min 0.5 (Float.max (d /. 4.) 0.005)
            | _ -> 0.5
          in
          let rs, ws =
            select
              ((pipe_r :: List.map fst open_) @ List.map (fun (_, k) -> k.fd) all)
              (List.filter_map
                 (fun (_, k) -> if k.pos < String.length k.out then Some k.fd else None)
                 all)
              timeout
          in
          tick ();
          List.iter (fun (lfd, http) -> if List.mem lfd rs then accept ~http lfd) open_;
          List.iter
            (fun (id, k) -> if Hashtbl.mem socks id && List.mem k.fd ws then flush id k)
            all;
          List.iter
            (fun (id, k) -> if Hashtbl.mem socks id && List.mem k.fd rs then read id k)
            all;
          loop ()
        end
      in
      let result =
        match
          Option.iter recover cfg.journal;
          ready ();
          loop ()
        with
        | () -> Ok ()
        | exception e -> Error (Printexc.to_string e)
      in
      (* A worker still busy here is wedged (a drained exit implies an
         idle service): abandon it so shutdown's joins cannot hang. *)
      for w = 0 to jobs - 1 do
        if Parallel.Service.busy_since service ~worker:w <> None then
          ignore (Parallel.Service.replace service ~worker:w)
      done;
      (try Parallel.Service.shutdown service with _ -> ());
      Option.iter Journal.close !journal;
      Hashtbl.iter (fun _ k -> close_quietly k.fd) socks;
      List.iter (fun (fd, _) -> close_quietly fd) listeners;
      close_quietly pipe_r;
      close_quietly pipe_w;
      let unlink_path = function
        | Unix_path p -> ( try Unix.unlink p with Unix.Unix_error _ | Sys_error _ -> ())
        | Tcp _ -> ()
      in
      unlink_path cfg.addr;
      Option.iter unlink_path cfg.metrics_addr;
      let result =
        match (root, cfg.trace) with
        | Some c, Some (fmt, path) -> (
            ignore (Obs.Trace.uninstall ());
            match Obs.Export.to_file fmt c path with
            | () -> result
            | exception Sys_error m -> (
                match result with Ok () -> Error m | Error _ -> result))
        | _ -> result
      in
      if log then Obs.Log.info "shut down";
      restore_signals prev_sigs;
      restore_signals prev_pipe;
      result
