(* A fixed-size domain pool with deterministic result assembly.

   Work distribution is an atomic cursor over the submission array:
   every worker (the submitting caller included) claims the next
   unclaimed index with fetch-and-add and runs that item. This is work
   stealing at item granularity — there is no per-worker queue to
   balance because the shared cursor IS the queue, and a fast worker
   simply claims what slower ones have not. What makes the pool
   deterministic is that scheduling never touches assembly: item [i]'s
   result lands in slot [i], and the caller reads the slots in
   submission order after the join barrier.

   The join uses the standard message-passing idiom of the OCaml memory
   model: a worker's (plain) write of slot [i] happens-before its
   fetch-and-add on [completed], and the submitter reads the slots only
   after observing [completed = n] — so the plain slot reads are
   race-free.

   Workers are spawned once at [create] and block on a condition
   variable between batches; batches are numbered so a worker never
   re-enters a batch it has already drained. Worker domains inherit
   nothing: every Domain.DLS-backed structure of the reasoning stack
   (session registry, relation-index cache, ambient trace collector)
   starts fresh per domain and stays warm across batches. Reasoner counters
   are not domain state: each item's work is counted in its own
   session's stats and travels back in the item's result. *)

type batch = {
  gen : int;  (* batch number, > 0 *)
  n : int;
  next : int Atomic.t;  (* next unclaimed item index *)
  completed : int Atomic.t;
  run : worker:int -> int -> unit;  (* must not raise; see [mapw] *)
}

type t = {
  njobs : int;
  mutex : Mutex.t;
  work_cv : Condition.t;  (* workers: a new batch arrived / shutdown *)
  done_cv : Condition.t;  (* submitter: the batch completed *)
  mutable batch : batch option;
  mutable generation : int;
  mutable stopped : bool;
  mutable workers : unit Domain.t array;
}

let jobs t = t.njobs
let default_jobs () = Domain.recommended_domain_count ()

(* Claim-and-run until the cursor passes the end; whoever completes the
   last item wakes the submitter. The broadcast is taken under the
   mutex so it cannot race ahead of the submitter's predicate check. *)
let drain t b ~worker =
  let continue_ = ref true in
  while !continue_ do
    let i = Atomic.fetch_and_add b.next 1 in
    if i >= b.n then continue_ := false
    else begin
      (try b.run ~worker i with _ -> ());
      if Atomic.fetch_and_add b.completed 1 = b.n - 1 then begin
        Mutex.lock t.mutex;
        Condition.broadcast t.done_cv;
        Mutex.unlock t.mutex
      end
    end
  done

let worker_loop t ~worker =
  let rec loop last_gen =
    Mutex.lock t.mutex;
    let rec await () =
      if t.stopped then begin
        Mutex.unlock t.mutex;
        None
      end
      else
        match t.batch with
        | Some b when b.gen > last_gen ->
            Mutex.unlock t.mutex;
            Some b
        | _ ->
            Condition.wait t.work_cv t.mutex;
            await ()
    in
    match await () with
    | None -> ()
    | Some b ->
        drain t b ~worker;
        loop b.gen
  in
  loop 0

let create ~jobs () =
  let njobs = max jobs 1 in
  let t =
    {
      njobs;
      mutex = Mutex.create ();
      work_cv = Condition.create ();
      done_cv = Condition.create ();
      batch = None;
      generation = 0;
      stopped = false;
      workers = [||];
    }
  in
  (* The caller is worker 0; spawn the rest. *)
  t.workers <-
    Array.init (njobs - 1) (fun i ->
        Domain.spawn (fun () -> worker_loop t ~worker:(i + 1)));
  t

let shutdown t =
  if not t.stopped then begin
    Mutex.lock t.mutex;
    t.stopped <- true;
    Condition.broadcast t.work_cv;
    Mutex.unlock t.mutex;
    Array.iter Domain.join t.workers;
    t.workers <- [||]
  end

let with_pool ~jobs f =
  let t = create ~jobs () in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

(* Submit one batch and block until every item completed. With one job
   (or a sub-worker batch) this is a plain sequential loop — the
   [--jobs 1] baseline runs no pool machinery at all. *)
let run_batch t ~n run =
  if t.stopped then invalid_arg "Parallel.Pool: pool is shut down";
  if n > 0 then
    if t.njobs = 1 then
      for i = 0 to n - 1 do
        run ~worker:0 i
      done
    else begin
      let b =
        {
          gen = t.generation + 1;
          n;
          next = Atomic.make 0;
          completed = Atomic.make 0;
          run;
        }
      in
      Mutex.lock t.mutex;
      t.generation <- b.gen;
      t.batch <- Some b;
      Condition.broadcast t.work_cv;
      Mutex.unlock t.mutex;
      drain t b ~worker:0;
      Mutex.lock t.mutex;
      while Atomic.get b.completed < n do
        Condition.wait t.done_cv t.mutex
      done;
      t.batch <- None;
      Mutex.unlock t.mutex
    end

let mapw t f items =
  let n = Array.length items in
  let results = Array.make n None in
  run_batch t ~n (fun ~worker i ->
      let r =
        try Ok (f ~worker items.(i))
        with e -> Error (e, Printexc.get_raw_backtrace ())
      in
      results.(i) <- Some r);
  (* Assembly in submission order; the lowest-indexed failure re-raises
     first, independent of which worker hit it or when. *)
  Array.map
    (function
      | Some (Ok v) -> v
      | Some (Error (e, bt)) -> Printexc.raise_with_backtrace e bt
      | None -> assert false (* run_batch completed every item *))
    results

let map t f items = mapw t (fun ~worker:_ x -> f x) items

let map_reduce t ~map:f ~reduce ~init items =
  Array.fold_left reduce init (map t f items)
