(* Resource governance: a budget value checked at cheap cancellation
   points throughout the reasoning stack. The design constraints:

   - The unbudgeted path must stay free: [unlimited] is inactive, so a
     checkpoint on it is a single load and branch.
   - Checkpoint counting must be deterministic (no wall-clock input), so
     [inject_after n] reproduces the exact same trip point on every run;
     only the deadline comparison reads the clock, and the count it is
     compared at does not depend on it.
   - Cancellation points are placed only where raising leaves shared
     structures (the CDCL solver, a grounding session) in a state from
     which later unbudgeted calls compute correct answers. *)

type reason = Timeout | Fuel

exception Exhausted of reason

let label_of_reason = function Timeout -> "timeout" | Fuel -> "out_of_fuel"

(* Spans interrupted by a trip get the reason as their status: the
   classifier keeps [Obs] ignorant of this module's exception type. *)
let () =
  Obs.Trace.register_exn_label (function
    | Exhausted r -> Some (label_of_reason r)
    | _ -> None)

type t = {
  active : bool;  (* inactive budgets never count and never trip *)
  deadline : float option;  (* absolute Unix.gettimeofday deadline *)
  fuel_limited : bool;
  mutable fuel : int;  (* remaining, when fuel_limited *)
  clause_limited : bool;
  mutable clauses : int;  (* remaining clause allowance *)
  inject_at : int;  (* checkpoint index to trip at; -1 for none *)
  inject_reason : reason;
  mutable count : int;
  mutable tripped : reason option;
}

let make ~active ?deadline ?fuel ?max_clauses ?(inject_at = -1)
    ?(inject_reason = Fuel) () =
  {
    active;
    deadline;
    fuel_limited = Option.is_some fuel;
    fuel = Option.value fuel ~default:max_int;
    clause_limited = Option.is_some max_clauses;
    clauses = Option.value max_clauses ~default:max_int;
    inject_at;
    inject_reason;
    count = 0;
    tripped = None;
  }

let unlimited = make ~active:false ()

let create ?timeout ?fuel ?max_clauses () =
  make ~active:true
    ?deadline:(Option.map (fun s -> Unix.gettimeofday () +. s) timeout)
    ?fuel ?max_clauses ()

let observer () = make ~active:true ()

let inject_after ?(reason = Fuel) n =
  make ~active:true ~inject_at:(max n 0) ~inject_reason:reason ()

let trip t reason =
  t.tripped <- Some reason;
  raise (Exhausted reason)

(* The deadline is polled once every [deadline_mask + 1] checkpoints:
   checkpoints are frequent enough (per emitted clause, per CDCL
   conflict/decision round) that the extra latency is microseconds,
   while keeping the clock off the hot path. *)
let deadline_mask = 63

let checkpoint t =
  if t.active then begin
    (match t.tripped with Some r -> raise (Exhausted r) | None -> ());
    let n = t.count in
    t.count <- n + 1;
    if n = t.inject_at then trip t t.inject_reason;
    match t.deadline with
    | Some d when n land deadline_mask = 0 && Unix.gettimeofday () > d ->
        trip t Timeout
    | _ -> ()
  end

let spend t n =
  checkpoint t;
  if t.active && t.fuel_limited then begin
    t.fuel <- t.fuel - n;
    if t.fuel < 0 then trip t Fuel
  end

let charge_clause t =
  checkpoint t;
  if t.active && t.clause_limited then begin
    t.clauses <- t.clauses - 1;
    if t.clauses < 0 then trip t Fuel
  end

let checkpoints t = t.count
let tripped t = t.tripped

(* ------------------------------------------------------------------ *)
(* Typed outcomes                                                       *)
(* ------------------------------------------------------------------ *)

type ('a, 'p) outcome = [ `Ok of 'a | `Timeout of 'p | `Out_of_fuel of 'p ]

let protect t ~partial f =
  try `Ok (f ())
  with Exhausted r when t.tripped = Some r ->
    (* The inner spans already unwound (closed with the classifier
       label); the event and status land on the still-open enclosing
       span — for a traced query, its root. *)
    Obs.Trace.event
      ~attrs:[ ("reason", Obs.Trace.Str (label_of_reason r)) ]
      "budget_trip";
    Obs.Trace.set_status (label_of_reason r);
    match r with
    | Timeout -> `Timeout (partial ())
    | Fuel -> `Out_of_fuel (partial ())

let map f = function
  | `Ok v -> `Ok (f v)
  | (`Timeout _ | `Out_of_fuel _) as d -> d

let outcome_reason = function
  | `Ok _ -> None
  | `Timeout _ -> Some Timeout
  | `Out_of_fuel _ -> Some Fuel

let pp_reason ppf = function
  | Timeout -> Fmt.string ppf "timeout"
  | Fuel -> Fmt.string ppf "out of fuel"
