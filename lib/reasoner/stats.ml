(* Instrumentation counters for the reasoner. One record is threaded
   through the incremental engine (and mirrored into [global]) so that
   callers — the CLI's --stats flag, the bench harness, tests — can see
   how much work a workload really did: groundings built, solver
   invocations, raw CDCL effort, session-cache effectiveness, and wall
   time split by phase. *)

type t = {
  mutable groundings : int;
  mutable solves : int;
  mutable decisions : int;
  mutable propagations : int;
  mutable conflicts : int;
  mutable cache_hits : int;
  mutable cache_misses : int;
  mutable memo_hits : int;
  mutable memo_misses : int;
  mutable budget_timeouts : int;
  mutable budget_fuel_trips : int;
  mutable ground_seconds : float;
  mutable solve_seconds : float;
}

let create () =
  {
    groundings = 0;
    solves = 0;
    decisions = 0;
    propagations = 0;
    conflicts = 0;
    cache_hits = 0;
    cache_misses = 0;
    memo_hits = 0;
    memo_misses = 0;
    budget_timeouts = 0;
    budget_fuel_trips = 0;
    ground_seconds = 0.0;
    solve_seconds = 0.0;
  }

(* The default record, one per domain: every engine operation on that
   domain is mirrored here so a front end can report totals without
   holding every session. Domain-local (rather than one process-wide
   record) because the counters are plain mutable ints — concurrent
   workers would tear and lose updates; the corpus runner instead sums
   per-item snapshots in submission order at join. *)
let global_key = Domain.DLS.new_key create
let global () = Domain.DLS.get global_key

let reset t =
  t.groundings <- 0;
  t.solves <- 0;
  t.decisions <- 0;
  t.propagations <- 0;
  t.conflicts <- 0;
  t.cache_hits <- 0;
  t.cache_misses <- 0;
  t.memo_hits <- 0;
  t.memo_misses <- 0;
  t.budget_timeouts <- 0;
  t.budget_fuel_trips <- 0;
  t.ground_seconds <- 0.0;
  t.solve_seconds <- 0.0

let copy t = { t with groundings = t.groundings }

let add ~into t =
  into.groundings <- into.groundings + t.groundings;
  into.solves <- into.solves + t.solves;
  into.decisions <- into.decisions + t.decisions;
  into.propagations <- into.propagations + t.propagations;
  into.conflicts <- into.conflicts + t.conflicts;
  into.cache_hits <- into.cache_hits + t.cache_hits;
  into.cache_misses <- into.cache_misses + t.cache_misses;
  into.memo_hits <- into.memo_hits + t.memo_hits;
  into.memo_misses <- into.memo_misses + t.memo_misses;
  into.budget_timeouts <- into.budget_timeouts + t.budget_timeouts;
  into.budget_fuel_trips <- into.budget_fuel_trips + t.budget_fuel_trips;
  into.ground_seconds <- into.ground_seconds +. t.ground_seconds;
  into.solve_seconds <- into.solve_seconds +. t.solve_seconds

(* The work done between an earlier snapshot [a] and a later one [b]. *)
let diff b a =
  {
    groundings = b.groundings - a.groundings;
    solves = b.solves - a.solves;
    decisions = b.decisions - a.decisions;
    propagations = b.propagations - a.propagations;
    conflicts = b.conflicts - a.conflicts;
    cache_hits = b.cache_hits - a.cache_hits;
    cache_misses = b.cache_misses - a.cache_misses;
    memo_hits = b.memo_hits - a.memo_hits;
    memo_misses = b.memo_misses - a.memo_misses;
    budget_timeouts = b.budget_timeouts - a.budget_timeouts;
    budget_fuel_trips = b.budget_fuel_trips - a.budget_fuel_trips;
    ground_seconds = b.ground_seconds -. a.ground_seconds;
    solve_seconds = b.solve_seconds -. a.solve_seconds;
  }

let now = Obs.Clock.now

(* Run [f], crediting its wall time via [credit]. *)
let timed credit f =
  let t0 = now () in
  Fun.protect ~finally:(fun () -> credit (now () -. t0)) f

let pp ppf t =
  Fmt.pf ppf
    "@[<v>groundings:   %d (%.4fs)@ solves:       %d (%.4fs)@ decisions:    \
     %d@ propagations: %d@ conflicts:    %d@ cache:        %d hit(s), %d \
     miss(es)@ ground memo:  %d hit(s), %d miss(es)@ budget trips: %d \
     timeout(s), %d fuel@]"
    t.groundings t.ground_seconds t.solves t.solve_seconds t.decisions
    t.propagations t.conflicts t.cache_hits t.cache_misses t.memo_hits
    t.memo_misses t.budget_timeouts t.budget_fuel_trips

(* Field order and key names are the documented schema (stats.mli):
   keep both stable — bench/CI consumers select keys with jq. *)
let to_json t =
  Printf.sprintf
    "{\"groundings\":%d,\"solves\":%d,\"decisions\":%d,\"propagations\":%d,\
     \"conflicts\":%d,\"cache_hits\":%d,\"cache_misses\":%d,\
     \"memo_hits\":%d,\"memo_misses\":%d,\
     \"budget_timeouts\":%d,\"budget_fuel_trips\":%d,\
     \"ground_seconds\":%.6f,\"solve_seconds\":%.6f}"
    t.groundings t.solves t.decisions t.propagations t.conflicts t.cache_hits
    t.cache_misses t.memo_hits t.memo_misses t.budget_timeouts
    t.budget_fuel_trips t.ground_seconds t.solve_seconds

(* Publish a snapshot into a metrics registry under [prefix].<field>,
   with the same snake_case field names as the JSON schema. Absolute
   writes, so re-publication is idempotent. *)
let publish ?(prefix = "reasoner") ?(into = Obs.Metrics.global ()) t =
  let count name v = Obs.Metrics.set_count into (prefix ^ "." ^ name) v in
  count "groundings" t.groundings;
  count "solves" t.solves;
  count "decisions" t.decisions;
  count "propagations" t.propagations;
  count "conflicts" t.conflicts;
  count "cache_hits" t.cache_hits;
  count "cache_misses" t.cache_misses;
  count "memo_hits" t.memo_hits;
  count "memo_misses" t.memo_misses;
  count "budget_timeouts" t.budget_timeouts;
  count "budget_fuel_trips" t.budget_fuel_trips;
  Obs.Metrics.set into (prefix ^ ".ground_seconds") t.ground_seconds;
  Obs.Metrics.set into (prefix ^ ".solve_seconds") t.solve_seconds
