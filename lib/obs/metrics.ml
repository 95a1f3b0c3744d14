(* A named metrics registry: monotonic counters, last-value gauges and
   bucketed histograms (count/sum/min/max plus log-spaced buckets for
   quantile estimation). Names are stable snake_case (dots for
   namespacing) — they become JSON keys, so renaming one is a schema
   change for every consumer of BENCH_*.json. *)

(* Log-spaced bucket upper bounds shared by every histogram: 1-2.5-5
   steps over nine decades, 1e-6 .. 1e3. Latencies are seconds, so this
   spans a microsecond to a quarter hour. *)
let bucket_bounds =
  let bounds = ref [] in
  for e = 2 downto -6 do
    let d = 10.0 ** float_of_int e in
    bounds := (1.0 *. d) :: (2.5 *. d) :: (5.0 *. d) :: !bounds
  done;
  Array.of_list (!bounds @ [ 1000.0 ])

let n_buckets = Array.length bucket_bounds + 1 (* + overflow *)

(* Index of the first bound >= v, or the overflow slot. The bounds
   array is tiny (28 entries) and the scan is branch-predictable, so a
   linear walk beats binary search in practice. *)
let bucket_index v =
  let n = Array.length bucket_bounds in
  let i = ref 0 in
  while !i < n && v > bucket_bounds.(!i) do
    incr i
  done;
  !i

type histogram = {
  mutable count : int;
  mutable sum : float;
  mutable min_v : float;
  mutable max_v : float;
  buckets : int array; (* buckets.(i) = observations <= bucket_bounds.(i) *)
}

type metric =
  | Counter of int ref
  | Gauge of float ref
  | Histogram of histogram

type t = { table : (string, metric) Hashtbl.t }

let create () = { table = Hashtbl.create 32 }

(* The default registry, one per domain: the daemon's loop and the bench
   harness write here. A registry is a plain hashtable of mutable cells,
   so sharing one across domains would race on every write; giving each
   domain its own keeps the hot increment path lock-free. Work done on
   another domain reaches a registry as values the owning domain writes
   itself. *)
let global_key = Domain.DLS.new_key create
let global () = Domain.DLS.get global_key

let reset t = Hashtbl.reset t.table

let find_or_add t name build =
  match Hashtbl.find_opt t.table name with
  | Some m -> m
  | None ->
      let m = build () in
      Hashtbl.replace t.table name m;
      m

let incr ?(by = 1) t name =
  match find_or_add t name (fun () -> Counter (ref 0)) with
  | Counter r -> r := !r + by
  | Gauge _ | Histogram _ -> invalid_arg ("Metrics.incr: " ^ name ^ " is not a counter")

(* Absolute write, for publishing snapshots of externally-held counters
   (Reasoner.Stats): re-publication must not double count. *)
let set_count t name v =
  match find_or_add t name (fun () -> Counter (ref v)) with
  | Counter r -> r := v
  | Gauge _ | Histogram _ ->
      invalid_arg ("Metrics.set_count: " ^ name ^ " is not a counter")

let set t name v =
  match find_or_add t name (fun () -> Gauge (ref v)) with
  | Gauge r -> r := v
  | Counter _ | Histogram _ -> invalid_arg ("Metrics.set: " ^ name ^ " is not a gauge")

let new_histogram () =
  Histogram
    {
      count = 0;
      sum = 0.0;
      min_v = infinity;
      max_v = neg_infinity;
      buckets = Array.make n_buckets 0;
    }

let observe t name v =
  match find_or_add t name new_histogram with
  | Histogram h ->
      h.count <- h.count + 1;
      h.sum <- h.sum +. v;
      if v < h.min_v then h.min_v <- v;
      if v > h.max_v then h.max_v <- v;
      let i = bucket_index v in
      h.buckets.(i) <- h.buckets.(i) + 1
  | Counter _ | Gauge _ ->
      invalid_arg ("Metrics.observe: " ^ name ^ " is not a histogram")

let counter_value t name =
  match Hashtbl.find_opt t.table name with
  | Some (Counter r) -> Some !r
  | _ -> None

let gauge_value t name =
  match Hashtbl.find_opt t.table name with
  | Some (Gauge r) -> Some !r
  | _ -> None

let histogram_stats t name =
  match Hashtbl.find_opt t.table name with
  | Some (Histogram h) -> Some (h.count, h.sum, h.min_v, h.max_v)
  | _ -> None

let histogram_buckets t name =
  match Hashtbl.find_opt t.table name with
  | Some (Histogram h) -> Some (Array.copy h.buckets)
  | _ -> None

(* Prometheus-style quantile estimate: find the bucket holding the
   q-rank observation, then interpolate linearly inside it. The
   estimate is clamped to the recorded [min, max], which both tightens
   the tails and makes single-observation histograms exact. *)
let quantile t name q =
  match Hashtbl.find_opt t.table name with
  | Some (Histogram h) when h.count > 0 ->
      let q = if q < 0.0 then 0.0 else if q > 1.0 then 1.0 else q in
      let rank = q *. float_of_int h.count in
      let cum = ref 0 in
      let i = ref 0 in
      let n = Array.length h.buckets in
      while !i < n - 1 && float_of_int (!cum + h.buckets.(!i)) < rank do
        cum := !cum + h.buckets.(!i);
        i := !i + 1
      done;
      let lo = if !i = 0 then 0.0 else bucket_bounds.(!i - 1) in
      let hi =
        if !i >= Array.length bucket_bounds then h.max_v
        else bucket_bounds.(!i)
      in
      let in_bucket = h.buckets.(!i) in
      let est =
        if in_bucket = 0 then hi
        else
          let frac = (rank -. float_of_int !cum) /. float_of_int in_bucket in
          lo +. ((hi -. lo) *. frac)
      in
      let est = if est < h.min_v then h.min_v else est in
      let est = if est > h.max_v then h.max_v else est in
      Some est
  | _ -> None

let names t =
  List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) t.table [])

let is_empty t = Hashtbl.length t.table = 0

(* ------------------------------------------------------------------ *)
(* Rendering                                                            *)
(* ------------------------------------------------------------------ *)

let json_of_metric = function
  | Counter r -> Json.Num (float_of_int !r)
  | Gauge r -> Json.Num !r
  | Histogram h ->
      Json.Obj
        (if h.count = 0 then [ ("count", Json.Num 0.); ("sum", Json.Num 0.) ]
         else
           [
             ("count", Json.Num (float_of_int h.count));
             ("sum", Json.Num h.sum);
             ("min", Json.Num h.min_v);
             ("max", Json.Num h.max_v);
             ("mean", Json.Num (h.sum /. float_of_int h.count));
           ])

let to_json t =
  Json.Obj
    (List.map
       (fun name -> (name, json_of_metric (Hashtbl.find t.table name)))
       (names t))

let pp ppf t =
  Fmt.pf ppf "@[<v>%a@]"
    (Fmt.list ~sep:Fmt.cut (fun ppf name ->
         match Hashtbl.find t.table name with
         | Counter r -> Fmt.pf ppf "%-40s %d" name !r
         | Gauge r -> Fmt.pf ppf "%-40s %g" name !r
         | Histogram h ->
             if h.count = 0 then Fmt.pf ppf "%-40s (empty)" name
             else
               Fmt.pf ppf "%-40s n=%d sum=%g min=%g max=%g" name h.count h.sum
                 h.min_v h.max_v))
    (names t)
