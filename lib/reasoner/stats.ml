(* Instrumentation counters for the reasoner. Each engine counts into
   its own record, and a session adds its budget trips to its engine's
   record, so that callers — the CLI's --stats flag, the bench harness,
   tests — can see how much work a workload really did: groundings
   built, solver invocations, raw CDCL effort, grounding-memo traffic,
   budget trips and wall time split by phase. Every event is written
   once, into the record of the engine or session that did the work. *)

type t = {
  mutable groundings : int;
  mutable solves : int;
  mutable decisions : int;
  mutable propagations : int;
  mutable conflicts : int;
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
    memo_hits = 0;
    memo_misses = 0;
    budget_timeouts = 0;
    budget_fuel_trips = 0;
    ground_seconds = 0.0;
    solve_seconds = 0.0;
  }

let copy t = { t with groundings = t.groundings }

let add ~into t =
  into.groundings <- into.groundings + t.groundings;
  into.solves <- into.solves + t.solves;
  into.decisions <- into.decisions + t.decisions;
  into.propagations <- into.propagations + t.propagations;
  into.conflicts <- into.conflicts + t.conflicts;
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
    memo_hits = b.memo_hits - a.memo_hits;
    memo_misses = b.memo_misses - a.memo_misses;
    budget_timeouts = b.budget_timeouts - a.budget_timeouts;
    budget_fuel_trips = b.budget_fuel_trips - a.budget_fuel_trips;
    ground_seconds = b.ground_seconds -. a.ground_seconds;
    solve_seconds = b.solve_seconds -. a.solve_seconds;
  }

let pp ppf t =
  Fmt.pf ppf
    "@[<v>groundings:   %d (%.4fs)@ solves:       %d (%.4fs)@ decisions:    \
     %d@ propagations: %d@ conflicts:    %d@ ground memo:  %d hit(s), %d \
     miss(es)@ budget trips: %d timeout(s), %d fuel@]"
    t.groundings t.ground_seconds t.solves t.solve_seconds t.decisions
    t.propagations t.conflicts t.memo_hits t.memo_misses t.budget_timeouts
    t.budget_fuel_trips

(* Field order and key names are the documented schema (stats.mli):
   keep both stable — bench/CI consumers select keys with jq. *)
let json t =
  let int i = Obs.Json.Num (float_of_int i) in
  Obs.Json.Obj
    [
      ("groundings", int t.groundings);
      ("solves", int t.solves);
      ("decisions", int t.decisions);
      ("propagations", int t.propagations);
      ("conflicts", int t.conflicts);
      ("memo_hits", int t.memo_hits);
      ("memo_misses", int t.memo_misses);
      ("budget_timeouts", int t.budget_timeouts);
      ("budget_fuel_trips", int t.budget_fuel_trips);
      ("ground_seconds", Obs.Json.Num t.ground_seconds);
      ("solve_seconds", Obs.Json.Num t.solve_seconds);
    ]

let to_json t = Obs.Json.render (json t)
