(* A simulated shell for Omqd.Core: the daemon's actions performed in
   memory. Jobs run inline when the test says a worker finishes one, the
   clock moves only by [tick], and the "sockets" are byte buffers whose
   flush size a test can choose. No sockets, threads or sleeps. Every
   event fed and every action performed is logged in order, for the
   property checks of the core suite. *)

module C = Omqd.Core
module P = Omq.Protocol
module Journal = Omqd.Journal

type item = Ev of C.event | Act of C.action

type t = {
  core : C.t;
  mutable now : float;
  queues : (int * (unit -> C.reply)) Queue.t array;
      (** per worker: submitted jobs, head running *)
  busy : float option array;  (** when each worker's head job started *)
  mutable lost : (int * int * (unit -> C.reply)) list;
      (** jobs abandoned by a [Replace]: worker, token, job *)
  mutable journal : Journal.entry list;  (** durable entries, newest first *)
  mutable appends : int;  (** append attempts so far *)
  mutable fail_append : int -> bool;  (** by attempt number, from 1 *)
  pending : (int, string) Hashtbl.t;  (** written, not yet flushed *)
  delivered : (int, Buffer.t) Hashtbl.t;  (** flushed bytes per conn *)
  closed : (int, unit) Hashtbl.t;
  mutable take : int -> int -> int;
      (** conn, unsent bytes -> bytes the socket takes now *)
  mutable log : item list;  (** newest first *)
  mutable stops : bool list;
      (** per [Stop]: whether it came drained or past the grace *)
  grace : float;
  mutable deadline : float;  (** when the shutdown grace ends *)
}

let create ?(jobs = 1) ?max_inflight ?supervise ?max_outbuf
    ?(shutdown_grace = C.default_shutdown_grace) ?(journaled = true) () =
  let core =
    C.create ~jobs ?max_inflight ?supervise ?max_outbuf ~shutdown_grace
      ~now:0.0 ()
  in
  let sim =
    {
      core;
      now = 0.0;
      queues = Array.init jobs (fun _ -> Queue.create ());
      busy = Array.make jobs None;
      lost = [];
      journal = [];
      appends = 0;
      fail_append = (fun _ -> false);
      pending = Hashtbl.create 7;
      delivered = Hashtbl.create 7;
      closed = Hashtbl.create 7;
      take = (fun _ n -> n);
      log = [];
      stops = [];
      grace = shutdown_grace;
      deadline = infinity;
    }
  in
  if journaled then ignore (C.recover core ~bytes:0 []);
  sim

let journal_bytes sim =
  List.fold_left
    (fun n e -> n + String.length (Journal.render e) + 1)
    0 sim.journal

let unsent sim c =
  Option.fold ~none:0 ~some:String.length (Hashtbl.find_opt sim.pending c)

let rec feed sim ev =
  sim.log <- Ev ev :: sim.log;
  let was_shutting = C.shutting sim.core in
  let acts = C.step sim.core ev in
  if C.shutting sim.core && not was_shutting then
    sim.deadline <- sim.now +. sim.grace;
  List.iter (perform sim) acts

and perform sim act =
  sim.log <- Act act :: sim.log;
  match act with
  | C.Submit { token; worker; job; _ } ->
      let q = sim.queues.(worker) in
      if Queue.is_empty q then sim.busy.(worker) <- Some sim.now;
      Queue.push (token, job) q
  | C.Append e ->
      sim.appends <- sim.appends + 1;
      if sim.fail_append sim.appends then
        feed sim (C.Journaled (Error "no space left on device"))
      else begin
        sim.journal <- e :: sim.journal;
        feed sim (C.Journaled (Ok (journal_bytes sim)))
      end
  | C.Compact es ->
      sim.journal <- List.rev es;
      feed sim (C.Journaled (Ok (journal_bytes sim)))
  | C.Write (c, data) ->
      Hashtbl.replace sim.pending c
        (Option.value ~default:"" (Hashtbl.find_opt sim.pending c) ^ data);
      flush sim c
  | C.Close c ->
      Hashtbl.remove sim.pending c;
      Hashtbl.replace sim.closed c ()
  | C.Replace w ->
      Queue.iter (fun (tok, job) -> sim.lost <- (w, tok, job) :: sim.lost) sim.queues.(w);
      Queue.clear sim.queues.(w);
      sim.busy.(w) <- None
  | C.Dump _ -> ()
  | C.Stop ->
      let drained =
        C.in_flight sim.core = 0
        && Hashtbl.fold (fun _ s ok -> ok && s = "") sim.pending true
      in
      sim.stops <- (drained || sim.now > sim.deadline) :: sim.stops

(* The socket takes what [take] allows of the conn's unsent bytes. *)
and flush sim c =
  match Hashtbl.find_opt sim.pending c with
  | None -> ()
  | Some data ->
      let k = max 0 (min (String.length data) (sim.take c (String.length data))) in
      let buf =
        match Hashtbl.find_opt sim.delivered c with
        | Some b -> b
        | None ->
            let b = Buffer.create 256 in
            Hashtbl.replace sim.delivered c b;
            b
      in
      Buffer.add_string buf (String.sub data 0 k);
      Hashtbl.replace sim.pending c (String.sub data k (String.length data - k));
      feed sim (C.Flushed (c, k))

let connect ?(http = false) sim c = feed sim (C.Connected { conn = c; http })
let send sim c bytes = feed sim (C.Input (c, bytes))
let hangup sim c = feed sim (C.Hangup c)
let signal sim s = feed sim (C.Signal s)

let frame ?id req = P.render_request ?id req ^ "\n"

(* Let the clock pass [dt] seconds. *)
let tick sim dt =
  sim.now <- sim.now +. dt;
  feed sim (C.Tick { now = sim.now; busy = Array.copy sim.busy })

(* Worker [w] finishes its running job; the next one starts now. *)
let complete sim w =
  let q = sim.queues.(w) in
  let token, job = Queue.pop q in
  sim.busy.(w) <- (if Queue.is_empty q then None else Some sim.now);
  feed sim (C.Completed { token; worker = w; reply = job (); gc = None })

(* Run every queued job to completion, worker by worker. *)
let rec settle sim =
  match List.find_opt (fun w -> not (Queue.is_empty sim.queues.(w)))
          (List.init (Array.length sim.queues) Fun.id) with
  | Some w ->
      complete sim w;
      settle sim
  | None -> ()

(* Feed the completion of a job a [Replace] abandoned, as a domain that
   finally unwedges would; returns the actions it caused. *)
let complete_lost sim =
  let lost = sim.lost in
  sim.lost <- [];
  List.concat_map
    (fun (w, token, job) ->
      C.step sim.core (C.Completed { token; worker = w; reply = job (); gc = None }))
    (List.rev lost)

(* Flush every connection as a writable socket would. *)
let writable sim =
  List.iter (flush sim)
    (List.sort compare (Hashtbl.fold (fun c _ a -> c :: a) sim.pending []))

let responses sim c =
  match Hashtbl.find_opt sim.delivered c with
  | None -> []
  | Some b ->
      String.split_on_char '\n' (Buffer.contents b)
      |> List.filter (( <> ) "")
      |> List.map (fun line ->
             match P.parse_response line with
             | Ok r -> r
             | Error (_, (_, m)) -> Alcotest.failf "undecodable response %S: %s" line m)

let response sim c id =
  match List.filter (fun (rid, _) -> rid = Some id) (responses sim c) with
  | [ (_, r) ] -> r
  | [] -> Alcotest.failf "request %d on conn %d was not answered" id c
  | _ -> Alcotest.failf "request %d on conn %d was answered twice" id c

let events sim = List.rev sim.log

(* The session fixture every serving suite uses, and its sequential
   ground truth rendered through the daemon's codec. *)
let onto = "Hand << exists hasFinger . Thumb"
let data = "Hand(h)\nThumb(t)\nhasFinger(h, t)"
let query = "q(x) <- Thumb(x)"
let open_req = P.Open_session { ontology = onto; data; query; max_extra = 2 }
let eval_req session = P.Eval { session; budget = P.no_budget; want_stats = false }

let direct_eval ?(extra = "") () =
  let tbox = Dl.Parser.parse_tbox onto in
  let d = Structure.Parse.instance_of_string (data ^ "\n" ^ extra) in
  let q = Query.Parse.ucq_of_string query in
  let session = Omq.open_session ~max_extra:2 (Omq.of_tbox tbox q) d in
  P.Evaled
    {
      result =
        {
          P.consistent = true;
          boolean = false;
          tuples =
            List.map
              (List.map (fun e -> Fmt.str "%a" Structure.Element.pp e))
              (Omq.Session.certain_answers session);
        };
      stats = None;
    }
