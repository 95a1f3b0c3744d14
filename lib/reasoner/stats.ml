(* Instrumentation counters for the reasoner. Each engine counts into
   its own record, and a session adds its budget trips to its engine's
   record, so that callers — the CLI's --stats flag, the bench harness,
   tests — can see how much work a workload really did: groundings
   built, clauses loaded, solver invocations, raw CDCL effort, budget
   trips and wall time split by phase. Every event is written
   once, into the record of the engine or session that did the work. *)

type t = {
  mutable groundings : int;
  mutable solves : int;
  mutable decisions : int;
  mutable propagations : int;
  mutable conflicts : int;
  mutable budget_timeouts : int;
  mutable budget_fuel_trips : int;
  mutable ground_seconds : float;
  mutable solve_seconds : float;
  mutable clauses : int;
  mutable load_seconds : float;
}

let create () =
  {
    groundings = 0;
    solves = 0;
    decisions = 0;
    propagations = 0;
    conflicts = 0;
    budget_timeouts = 0;
    budget_fuel_trips = 0;
    ground_seconds = 0.0;
    solve_seconds = 0.0;
    clauses = 0;
    load_seconds = 0.0;
  }

let copy t = { t with groundings = t.groundings }

let add ~into t =
  into.groundings <- into.groundings + t.groundings;
  into.solves <- into.solves + t.solves;
  into.decisions <- into.decisions + t.decisions;
  into.propagations <- into.propagations + t.propagations;
  into.conflicts <- into.conflicts + t.conflicts;
  into.budget_timeouts <- into.budget_timeouts + t.budget_timeouts;
  into.budget_fuel_trips <- into.budget_fuel_trips + t.budget_fuel_trips;
  into.ground_seconds <- into.ground_seconds +. t.ground_seconds;
  into.solve_seconds <- into.solve_seconds +. t.solve_seconds;
  into.clauses <- into.clauses + t.clauses;
  into.load_seconds <- into.load_seconds +. t.load_seconds

(* The work done between an earlier snapshot [a] and a later one [b]. *)
let diff b a =
  {
    groundings = b.groundings - a.groundings;
    solves = b.solves - a.solves;
    decisions = b.decisions - a.decisions;
    propagations = b.propagations - a.propagations;
    conflicts = b.conflicts - a.conflicts;
    budget_timeouts = b.budget_timeouts - a.budget_timeouts;
    budget_fuel_trips = b.budget_fuel_trips - a.budget_fuel_trips;
    ground_seconds = b.ground_seconds -. a.ground_seconds;
    solve_seconds = b.solve_seconds -. a.solve_seconds;
    clauses = b.clauses - a.clauses;
    load_seconds = b.load_seconds -. a.load_seconds;
  }

let pp ppf t =
  Fmt.pf ppf
    "@[<v>groundings:   %d (%.4fs)@ clauses:      %d (%.4fs loading)@ \
     solves:       %d (%.4fs)@ decisions:    %d@ propagations: %d@ \
     conflicts:    %d@ budget trips: %d timeout(s), %d fuel@]"
    t.groundings t.ground_seconds t.clauses t.load_seconds t.solves
    t.solve_seconds t.decisions t.propagations t.conflicts t.budget_timeouts
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
      ("budget_timeouts", int t.budget_timeouts);
      ("budget_fuel_trips", int t.budget_fuel_trips);
      ("ground_seconds", Obs.Json.Num t.ground_seconds);
      ("solve_seconds", Obs.Json.Num t.solve_seconds);
      ("clauses", int t.clauses);
      ("load_seconds", Obs.Json.Num t.load_seconds);
    ]

let to_json t = Obs.Json.render (json t)
