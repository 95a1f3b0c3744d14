(* A CDCL SAT solver: two-watched-literal propagation, 1-UIP conflict
   analysis with non-chronological backjumping, VSIDS branching with
   phase saving, and geometric restarts. Literals are non-zero integers
   ±v for 1-based variables.

   The solver is persistent and incremental: it survives across solves,
   accepts new variables and clauses between calls (keeping its learned
   clauses), and solves under assumption literals — assumptions are
   planted as the first decision levels, MiniSat-style, so refuting a
   query instantiation needs no clause retraction. The one-shot [solve]
   used by the bounded model finder is a thin wrapper. *)

type result =
  | Sat of bool array  (** index v-1 holds the value of variable v *)
  | Unsat

type t = {
  mutable nvars : int;
  mutable clauses : int array array;  (* original + learned *)
  mutable nclauses : int;
  mutable watches : int list array;  (* literal index -> clause indices *)
  mutable assign : int array;  (* 0 / 1 / -1 *)
  mutable level : int array;
  mutable reason : int array;  (* clause index or -1 *)
  mutable trail : int array;
  mutable trail_size : int;
  mutable trail_lim : int array;  (* start of each decision level in trail *)
  mutable decision_level : int;
  mutable qhead : int;
  mutable activity : float array;
  mutable var_inc : float;
  mutable heap : int array;  (* binary max-heap of variables by activity *)
  mutable heap_pos : int array;  (* var -> index in heap, -1 if absent *)
  mutable heap_size : int;
  mutable decision : bool array;  (* var may be branched on (default true) *)
  mutable phase : bool array;
  mutable seen : bool array;  (* scratch for conflict analysis *)
  mutable scratch : int array;  (* scratch for clause simplification *)
  mutable broken : bool;  (* refuted at level 0: permanently unsat *)
  mutable core : int list;  (* failed-assumption core of the last Unsat *)
  mutable n_decisions : int;
  mutable n_propagations : int;
  mutable n_conflicts : int;
}

let lit_index l = if l > 0 then 2 * (l - 1) else (2 * (-l - 1)) + 1
let lit_var l = abs l - 1

let value s l =
  let v = s.assign.(lit_var l) in
  if v = 0 then 0 else if (l > 0) = (v = 1) then 1 else -1

let make ~nvars =
  {
    nvars;
    clauses = Array.make 16 [||];
    nclauses = 0;
    watches = Array.make (max (2 * nvars) 2) [];
    assign = Array.make (max nvars 1) 0;
    level = Array.make (max nvars 1) 0;
    reason = Array.make (max nvars 1) (-1);
    trail = Array.make (max nvars 1) 0;
    trail_size = 0;
    trail_lim = Array.make (max nvars 1) 0;
    decision_level = 0;
    qhead = 0;
    activity = Array.make (max nvars 1) 0.0;
    var_inc = 1.0;
    (* all activities start equal (0), so the identity layout is a
       well-formed heap over the initial variables *)
    heap = Array.init (max nvars 1) (fun i -> i);
    heap_pos = Array.init (max nvars 1) (fun i -> if i < nvars then i else -1);
    heap_size = nvars;
    decision = Array.make (max nvars 1) true;
    phase = Array.make (max nvars 1) false;
    seen = Array.make (max nvars 1) false;
    scratch = Array.make 16 0;
    broken = false;
    core = [];
    n_decisions = 0;
    n_propagations = 0;
    n_conflicts = 0;
  }

let grow_array a n def =
  if Array.length a >= n then a
  else begin
    let bigger = Array.make (max n (2 * Array.length a)) def in
    Array.blit a 0 bigger 0 (Array.length a);
    bigger
  end

(* The VSIDS order heap: a binary max-heap of unassigned decision
   variables by activity, so [decide] is O(log n) instead of a scan over
   all variables. Deletion is lazy — a variable assigned by propagation
   (or stripped of its decision flag) stays in the heap until [decide]
   pops and skips it; [cancel_until] re-inserts the decision variables
   it unassigns. *)

let heap_swap s i j =
  let u = s.heap.(i) and v = s.heap.(j) in
  s.heap.(i) <- v;
  s.heap.(j) <- u;
  s.heap_pos.(v) <- i;
  s.heap_pos.(u) <- j

let heap_sift_up s i =
  let i = ref i in
  let continue = ref (!i > 0) in
  while !continue do
    let p = (!i - 1) / 2 in
    if s.activity.(s.heap.(!i)) > s.activity.(s.heap.(p)) then begin
      heap_swap s !i p;
      i := p;
      continue := !i > 0
    end
    else continue := false
  done

let heap_sift_down s i =
  let i = ref i in
  let continue = ref true in
  while !continue do
    let l = (2 * !i) + 1 in
    if l >= s.heap_size then continue := false
    else begin
      let r = l + 1 in
      let c =
        if r < s.heap_size && s.activity.(s.heap.(r)) > s.activity.(s.heap.(l))
        then r
        else l
      in
      if s.activity.(s.heap.(c)) > s.activity.(s.heap.(!i)) then begin
        heap_swap s !i c;
        i := c
      end
      else continue := false
    end
  done

let heap_insert s v =
  if s.heap_pos.(v) < 0 && s.decision.(v) then begin
    s.heap.(s.heap_size) <- v;
    s.heap_pos.(v) <- s.heap_size;
    s.heap_size <- s.heap_size + 1;
    heap_sift_up s (s.heap_size - 1)
  end

(* Remove and return the maximum-activity variable (heap non-empty). *)
let heap_pop s =
  let v = s.heap.(0) in
  s.heap_size <- s.heap_size - 1;
  s.heap_pos.(v) <- -1;
  if s.heap_size > 0 then begin
    let w = s.heap.(s.heap_size) in
    s.heap.(0) <- w;
    s.heap_pos.(w) <- 0;
    heap_sift_down s 0
  end;
  v

(* Repair the heap order for [v] after its activity increased. *)
let heap_update s v = if s.heap_pos.(v) >= 0 then heap_sift_up s s.heap_pos.(v)

(* Rebuild from every unassigned decision variable — only for the
   one-shot [solve]/[solve_iter], which overwrite every activity in bulk
   and then search once. Incremental seeding and [bump] repair the heap
   per write instead. *)
let heap_rebuild s =
  Array.fill s.heap_pos 0 (Array.length s.heap_pos) (-1);
  s.heap_size <- 0;
  for v = 0 to s.nvars - 1 do
    if s.assign.(v) = 0 && s.decision.(v) then begin
      s.heap.(s.heap_size) <- v;
      s.heap_pos.(v) <- s.heap_size;
      s.heap_size <- s.heap_size + 1
    end
  done;
  for i = (s.heap_size / 2) - 1 downto 0 do
    heap_sift_down s i
  done

(* Admit variables 1..n (idempotent; arrays are reallocated lazily). *)
let ensure_nvars s n =
  if n > s.nvars then begin
    s.watches <- grow_array s.watches (2 * n) [];
    s.assign <- grow_array s.assign n 0;
    s.level <- grow_array s.level n 0;
    s.reason <- grow_array s.reason n (-1);
    s.trail <- grow_array s.trail n 0;
    s.activity <- grow_array s.activity n 0.0;
    s.phase <- grow_array s.phase n false;
    s.decision <- grow_array s.decision n true;
    s.seen <- grow_array s.seen n false;
    s.heap <- grow_array s.heap n 0;
    s.heap_pos <- grow_array s.heap_pos n (-1);
    let first = s.nvars in
    s.nvars <- n;
    for v = first to n - 1 do
      heap_insert s v
    done
  end

(* [set_decision_var s v b] lets the search branch on variable v (b) or
   not (lazily: a stripped variable already in the heap is skipped when
   popped). *)
let set_decision_var s v b =
  ensure_nvars s v;
  let v = v - 1 in
  s.decision.(v) <- b;
  if b && s.assign.(v) = 0 then heap_insert s v

(* Decision levels can exceed nvars when assumptions open dummy levels. *)
let ensure_levels s n = s.trail_lim <- grow_array s.trail_lim n 0

let counters s = (s.n_decisions, s.n_propagations, s.n_conflicts)

let grow_clauses s =
  if s.nclauses = Array.length s.clauses then begin
    let bigger = Array.make (2 * Array.length s.clauses) [||] in
    Array.blit s.clauses 0 bigger 0 s.nclauses;
    s.clauses <- bigger
  end

(* Enqueue an implied (or decided) literal. *)
let enqueue s l reason =
  let v = lit_var l in
  s.assign.(v) <- (if l > 0 then 1 else -1);
  s.level.(v) <- s.decision_level;
  s.reason.(v) <- reason;
  s.trail.(s.trail_size) <- l;
  s.trail_size <- s.trail_size + 1

(* Attach a clause (index ci) to its two watchers. *)
let attach s ci =
  let c = s.clauses.(ci) in
  if Array.length c >= 2 then begin
    s.watches.(lit_index c.(0)) <- ci :: s.watches.(lit_index c.(0));
    s.watches.(lit_index c.(1)) <- ci :: s.watches.(lit_index c.(1))
  end

let cancel_until s lvl =
  if s.decision_level > lvl then begin
    let bound = s.trail_lim.(lvl) in
    for i = s.trail_size - 1 downto bound do
      let v = lit_var s.trail.(i) in
      s.phase.(v) <- s.assign.(v) = 1;
      s.assign.(v) <- 0;
      s.reason.(v) <- -1;
      heap_insert s v
    done;
    s.trail_size <- bound;
    s.qhead <- bound;
    s.decision_level <- lvl
  end

let ensure_scratch s n =
  if Array.length s.scratch < n then
    s.scratch <- Array.make (max n (2 * Array.length s.scratch)) 0

(* Sort scratch.[0..len) by (|l|, l): this order puts duplicate
   literals and complementary pairs adjacent (with -v just before v).
   Insertion sort for the short clauses that dominate; long clauses
   (counting-quantifier disjunctions reach thousands of literals) would
   make it quadratic, so they go through the standard sort instead. *)
let lit_order x y =
  let kx = abs x and ky = abs y in
  if kx <> ky then compare kx ky else compare x y

let sort_scratch buf len =
  if len > 24 then begin
    let a = Array.sub buf 0 len in
    Array.fast_sort lit_order a;
    Array.blit a 0 buf 0 len
  end
  else
    for i = 1 to len - 1 do
      let x = buf.(i) in
      let kx = abs x in
      let j = ref (i - 1) in
      while
        !j >= 0
        &&
        let y = buf.(!j) in
        let ky = abs y in
        ky > kx || (ky = kx && y > x)
      do
        buf.(!j + 1) <- buf.(!j);
        decr j
      done;
      buf.(!j + 1) <- x
    done

(* One adjacent scan over the sorted buffer: compact away duplicates in
   place, and report a tautology (v and -v both present) as -1. *)
let dedup_scan buf len =
  if len = 0 then 0
  else begin
    let m = ref 1 in
    let taut = ref false in
    (try
       for i = 1 to len - 1 do
         let l = buf.(i) in
         let prev = buf.(!m - 1) in
         if l = prev then ()
         else if l = -prev then begin
           taut := true;
           raise Exit
         end
         else begin
           buf.(!m) <- l;
           incr m
         end
       done
     with Exit -> ());
    if !taut then -1 else !m
  end

(* The shared level-0 assertion core over scratch.[0..len): sort,
   dedup/tautology-scan, then simplify against the permanent assignment
   (satisfied clauses dropped, falsified literals removed). The caller
   has already cancelled open decision levels and checked [broken]. *)
let assert_scratch s len =
  sort_scratch s.scratch len;
  let m = dedup_scan s.scratch len in
  if m >= 0 then begin
    (* abs-sorted, so the last literal carries the largest variable *)
    if m > 0 then ensure_nvars s (abs s.scratch.(m - 1));
    let sat = ref false in
    let k = ref 0 in
    for i = 0 to m - 1 do
      let l = s.scratch.(i) in
      match value s l with
      | 1 -> sat := true
      | 0 ->
          s.scratch.(!k) <- l;
          incr k
      | _ -> ()
    done;
    if not !sat then begin
      match !k with
      | 0 -> s.broken <- true
      | 1 -> enqueue s s.scratch.(0) (-1)
      | k ->
          grow_clauses s;
          s.clauses.(s.nclauses) <- Array.sub s.scratch 0 k;
          attach s s.nclauses;
          s.nclauses <- s.nclauses + 1
    end
  end

(* Assert a clause at level 0, simplifying against the permanent
   (level-0) assignment. Any open decision levels are cancelled first,
   so this is safe between solves. *)
let assert_clause s lits =
  cancel_until s 0;
  if not s.broken then begin
    let len = List.length lits in
    ensure_scratch s len;
    List.iteri (fun i l -> s.scratch.(i) <- l) lits;
    assert_scratch s len
  end

(* Same, from a [len]-literal slice of a flat buffer at [off] (the
   grounder's clause arena) — no intermediate list. *)
let assert_clause_slice s a off len =
  cancel_until s 0;
  if not s.broken then begin
    ensure_scratch s len;
    Array.blit a off s.scratch 0 len;
    assert_scratch s len
  end

(* Seed branching activity from a clause (Jeroslow-Wang-ish weights),
   for solvers built incrementally rather than via one-shot [solve].
   Seeding only raises activities, so each write is repaired in place
   by sifting the variable up (MiniSat's order-heap discipline) and the
   next solve starts from a valid heap, with no rebuild. *)
let seed_lit s w l =
  let v = lit_var l in
  ensure_nvars s (v + 1);
  s.activity.(v) <- s.activity.(v) +. w;
  heap_update s v

let seed_clause s c =
  let w = 2.0 ** float_of_int (-min (List.length c) 30) in
  List.iter (seed_lit s w) c

let seed_clause_slice s a off len =
  let w = 2.0 ** float_of_int (-min len 30) in
  for i = off to off + len - 1 do
    seed_lit s w a.(i)
  done

(* Two-watched-literal unit propagation; returns the conflicting clause
   index, or -1. *)
let propagate s =
  let conflict = ref (-1) in
  while !conflict = -1 && s.qhead < s.trail_size do
    let l = s.trail.(s.qhead) in
    s.qhead <- s.qhead + 1;
    s.n_propagations <- s.n_propagations + 1;
    let falsified = -l in
    let wi = lit_index falsified in
    let watching = s.watches.(wi) in
    s.watches.(wi) <- [];
    let rec go = function
      | [] -> ()
      | ci :: rest ->
          let c = s.clauses.(ci) in
          (* normalise so that c.(1) = falsified *)
          if c.(0) = falsified then begin
            c.(0) <- c.(1);
            c.(1) <- falsified
          end;
          if value s c.(0) = 1 then begin
            (* already satisfied: keep watching *)
            s.watches.(wi) <- ci :: s.watches.(wi);
            go rest
          end
          else begin
            (* look for a new watch *)
            let n = Array.length c in
            let rec find k =
              if k >= n then -1 else if value s c.(k) <> -1 then k else find (k + 1)
            in
            let k = find 2 in
            if k >= 0 then begin
              c.(1) <- c.(k);
              c.(k) <- falsified;
              s.watches.(lit_index c.(1)) <- ci :: s.watches.(lit_index c.(1));
              go rest
            end
            else begin
              (* unit or conflicting *)
              s.watches.(wi) <- ci :: s.watches.(wi);
              match value s c.(0) with
              | -1 ->
                  conflict := ci;
                  (* keep the remaining watchers *)
                  List.iter
                    (fun cj -> s.watches.(wi) <- cj :: s.watches.(wi))
                    rest
              | 0 ->
                  enqueue s c.(0) ci;
                  go rest
              | _ -> go rest
            end
          end
    in
    go watching
  done;
  !conflict

let bump s v =
  s.activity.(v) <- s.activity.(v) +. s.var_inc;
  heap_update s v;
  if s.activity.(v) > 1e100 then begin
    (* uniform rescale: relative order unchanged, heap stays valid *)
    for u = 0 to s.nvars - 1 do
      s.activity.(u) <- s.activity.(u) *. 1e-100
    done;
    s.var_inc <- s.var_inc *. 1e-100
  end

let decay s = s.var_inc <- s.var_inc /. 0.95

(* 1-UIP conflict analysis: learned clause + backjump level. *)
let analyze s conflict_ci =
  let learned = ref [] in
  let counter = ref 0 in
  let p = ref 0 (* the asserting literal, set below *) in
  let idx = ref (s.trail_size - 1) in
  let reason_lits ci skip =
    Array.to_list s.clauses.(ci) |> List.filter (fun l -> l <> skip)
  in
  let process lits =
    List.iter
      (fun l ->
        let v = lit_var l in
        if (not s.seen.(v)) && s.level.(v) > 0 then begin
          s.seen.(v) <- true;
          bump s v;
          if s.level.(v) >= s.decision_level then incr counter
          else learned := l :: !learned
        end)
      lits
  in
  process (Array.to_list s.clauses.(conflict_ci));
  let continue = ref true in
  while !continue do
    (* find next seen literal on the trail *)
    while not s.seen.(lit_var s.trail.(!idx)) do
      decr idx
    done;
    let l = s.trail.(!idx) in
    let v = lit_var l in
    s.seen.(v) <- false;
    decr counter;
    decr idx;
    if !counter = 0 then begin
      p := -l;
      continue := false
    end
    else process (reason_lits s.reason.(v) l)
  done;
  let lits = !p :: !learned in
  List.iter (fun l -> s.seen.(lit_var l) <- false) !learned;
  let backjump =
    List.fold_left
      (fun m l -> if l = !p then m else max m (s.level.(lit_var l)))
      0 !learned
  in
  (Array.of_list lits, backjump)

(* The next branching variable: the most active unassigned decision
   variable. Once the heap is exhausted, every variable should be
   assigned — callers strip the flag only from variables that unit
   propagation defines from the decision variables — but a trail shorter
   than [nvars] says otherwise, and then the lowest unassigned variable
   is decided, so completeness never rests on that invariant. *)
let decide s =
  let best = ref (-1) in
  while !best = -1 && s.heap_size > 0 do
    let v = heap_pop s in
    if s.assign.(v) = 0 && s.decision.(v) then best := v
  done;
  if !best = -1 && s.trail_size < s.nvars then begin
    let v = ref 0 in
    while s.assign.(!v) <> 0 do
      incr v
    done;
    best := !v
  end;
  if !best = -1 then None
  else begin
    let v = !best in
    ensure_levels s (s.decision_level + 1);
    s.trail_lim.(s.decision_level) <- s.trail_size;
    s.decision_level <- s.decision_level + 1;
    s.n_decisions <- s.n_decisions + 1;
    enqueue s (if s.phase.(v) then v + 1 else -(v + 1)) (-1);
    Some v
  end

(* Record a learned clause and enqueue its asserting literal (position
   0). Position 1 is set to a literal of maximal level so the watch
   invariant holds after backjumping. Returns false on refutation. *)
let record_learned s lits =
  match Array.length lits with
  | 0 -> false
  | 1 -> (
      match value s lits.(0) with
      | 1 -> true
      | -1 -> false
      | _ ->
          enqueue s lits.(0) (-1);
          true)
  | n ->
      let best = ref 1 in
      for k = 2 to n - 1 do
        if s.level.(lit_var lits.(k)) > s.level.(lit_var lits.(!best)) then
          best := k
      done;
      let tmp = lits.(1) in
      lits.(1) <- lits.(!best);
      lits.(!best) <- tmp;
      grow_clauses s;
      s.clauses.(s.nclauses) <- lits;
      attach s s.nclauses;
      enqueue s lits.(0) s.nclauses;
      s.nclauses <- s.nclauses + 1;
      true

(* MiniSat's [analyzeFinal]: assumption [p] was found false while being
   planted, so every decision level open so far is an assumption level.
   Walk the trail back from the top, following the reasons of the
   marked literals; the decisions reached are the assumptions whose
   propagation falsified [p]. Together with [p] they are unsatisfiable
   with the clauses alone. A [p] falsified at level 0 needs no other
   assumption. *)
let analyze_final s p =
  let core = ref [ p ] in
  let v = lit_var p in
  if s.level.(v) > 0 then begin
    s.seen.(v) <- true;
    for i = s.trail_size - 1 downto s.trail_lim.(0) do
      let l = s.trail.(i) in
      let x = lit_var l in
      if s.seen.(x) then begin
        let r = s.reason.(x) in
        if r < 0 then core := l :: !core
        else
          Array.iter
            (fun q ->
              let u = lit_var q in
              if u <> x && s.level.(u) > 0 then s.seen.(u) <- true)
            s.clauses.(r);
        s.seen.(x) <- false
      end
    done
  end;
  !core

(* The CDCL loop, with [assumptions] planted as the first decision
   levels (one level per assumption, dummy levels for assumptions that
   are already true — MiniSat-style). Restarts cancel to level 0 and the
   assumptions are simply re-planted. An assumption found false against
   the level-0-closed prefix refutes the query without poisoning the
   solver: [broken] is only set by genuine level-0 conflicts. An Unsat
   leaves its failed-assumption core in [s.core]: [analyze_final]'s
   subset for a falsified assumption, [] for a [broken] solver. *)
let search ?(budget = Budget.unlimited) s assumptions =
  Obs.Trace.with_span
    ~attrs:[ ("vars", Obs.Trace.Int s.nvars) ]
    "dpll.solve"
  @@ fun () ->
  let assumptions = Array.of_list assumptions in
  Array.iter (fun l -> ensure_nvars s (lit_var l + 1)) assumptions;
  ensure_levels s (Array.length assumptions + s.nvars + 1);
  cancel_until s 0;
  s.core <- [];
  if s.broken then false
  else begin
    let restart_budget = ref 100 in
    let conflicts = ref 0 in
    (* Budget checkpoints sit between propagation/decision rounds, where
       the solver's invariants hold: an [Exhausted] raised here leaves a
       consistent trail that the next call simply cancels to level 0, so
       an interrupted solver stays reusable. Fuel is debited by the
       actual CDCL effort (propagations + conflicts) since the previous
       checkpoint. *)
    let effort = ref (s.n_propagations + s.n_conflicts) in
    let tick () =
      let now = s.n_propagations + s.n_conflicts in
      let spent = now - !effort in
      effort := now;
      Budget.spend budget spent
    in
    let rec loop () =
      tick ();
      let conflict = propagate s in
      if conflict >= 0 then begin
        incr conflicts;
        s.n_conflicts <- s.n_conflicts + 1;
        if s.decision_level = 0 then begin
          s.broken <- true;
          false
        end
        else begin
          let learned, backjump = analyze s conflict in
          cancel_until s backjump;
          decay s;
          if not (record_learned s learned) then begin
            s.broken <- true;
            false
          end
          else if !conflicts >= !restart_budget then begin
            restart_budget := !restart_budget + (!restart_budget / 2);
            cancel_until s 0;
            (* Level 0 after a cancel: a safe boundary for a clock read. *)
            Obs.Trace.event
              ~attrs:[ ("conflicts", Obs.Trace.Int !conflicts) ]
              "dpll.restart";
            loop ()
          end
          else loop ()
        end
      end
      else if s.decision_level < Array.length assumptions then begin
        (* plant the next assumption as a decision *)
        let p = assumptions.(s.decision_level) in
        match value s p with
        | -1 ->
            (* conflicts with the assumptions: not [broken] *)
            s.core <- analyze_final s p;
            false
        | 1 ->
            (* already true: open a dummy level to keep the
               level <-> assumption-index correspondence *)
            s.trail_lim.(s.decision_level) <- s.trail_size;
            s.decision_level <- s.decision_level + 1;
            loop ()
        | _ ->
            s.trail_lim.(s.decision_level) <- s.trail_size;
            s.decision_level <- s.decision_level + 1;
            enqueue s p (-1);
            loop ()
      end
      else
        match decide s with
        | None -> true (* full assignment: satisfying, left on the trail *)
        | Some _ -> loop ()
    in
    let r = loop () in
    if Obs.Trace.enabled () then
      Obs.Trace.add_attr "budget_checkpoints"
        (Obs.Trace.Int (Budget.checkpoints budget));
    r
  end

(* Satisfiability under assumptions without materializing the model —
   the engine's per-tuple certainty path discards it anyway. *)
let sat_assuming ?budget s assumptions = search ?budget s assumptions

let core s = s.core

let solve_assuming ?budget s assumptions =
  if search ?budget s assumptions then
    Sat (Array.init s.nvars (fun v -> s.assign.(v) = 1))
  else Unsat

(* ------------------------------------------------------------------ *)
(* One-shot interface (bounded model finder, tests)                     *)
(* ------------------------------------------------------------------ *)

let solve ?budget ~nvars clauses =
  let s = make ~nvars in
  (* seed activities with occurrence counts for a Jeroslow-Wang-ish
     initial order and initial phases *)
  let pos = Array.make (max nvars 1) 0.0
  and neg = Array.make (max nvars 1) 0.0 in
  List.iter
    (fun c ->
      let w = 2.0 ** float_of_int (-min (List.length c) 30) in
      List.iter
        (fun l ->
          if l > 0 then pos.(lit_var l) <- pos.(lit_var l) +. w
          else neg.(lit_var l) <- neg.(lit_var l) +. w)
        c)
    clauses;
  for v = 0 to nvars - 1 do
    s.activity.(v) <- pos.(v) +. neg.(v);
    s.phase.(v) <- pos.(v) >= neg.(v)
  done;
  List.iter (fun c -> assert_clause s c) clauses;
  heap_rebuild s;
  solve_assuming ?budget s []

(* Same one-shot solve over a clause *iterator*: [iter f] must call
   [f buf off len] once per clause, where the clause is the literal
   slice buf.[off..off+len) — the grounder's flat arena feeds this
   directly, with no per-clause list. Iterated twice (phase/activity
   seeding, then assertion), so [iter] must be re-runnable. *)
let solve_iter ?budget ~nvars iter =
  let s = make ~nvars in
  let pos = Array.make (max nvars 1) 0.0
  and neg = Array.make (max nvars 1) 0.0 in
  iter (fun (buf : int array) off len ->
      let w = 2.0 ** float_of_int (-min len 30) in
      for i = off to off + len - 1 do
        let l = buf.(i) in
        if l > 0 then pos.(lit_var l) <- pos.(lit_var l) +. w
        else neg.(lit_var l) <- neg.(lit_var l) +. w
      done);
  for v = 0 to nvars - 1 do
    s.activity.(v) <- pos.(v) +. neg.(v);
    s.phase.(v) <- pos.(v) >= neg.(v)
  done;
  iter (fun buf off len -> assert_clause_slice s buf off len);
  heap_rebuild s;
  solve_assuming ?budget s []

let lit_true model l = if l > 0 then model.(l - 1) else not model.(-l - 1)

(* The shared projected-enumeration loop: each found projection is
   blocked by a new clause, learned clauses kept throughout. *)
let enumerate_loop ~budget ~project ~limit s =
  let rec go acc n =
    if n >= limit then List.rev acc
    else
      match solve_assuming ~budget s [] with
      | Unsat -> List.rev acc
      | Sat model ->
          let blocking =
            List.map (fun l -> if lit_true model l then -l else l) project
          in
          if blocking = [] then List.rev (model :: acc)
          else begin
            assert_clause s blocking;
            go (model :: acc) (n + 1)
          end
  in
  go [] 0

(* Enumerate satisfying assignments projected to the [project]ed
   literals. Incremental: one persistent solver underneath. *)
let enumerate ?(budget = Budget.unlimited) ~nvars ~project ?(limit = max_int)
    clauses =
  let s = make ~nvars in
  List.iter (fun c -> seed_clause s c) clauses;
  List.iter (fun c -> assert_clause s c) clauses;
  enumerate_loop ~budget ~project ~limit s

(* [enumerate] over a clause iterator (see {!solve_iter}). *)
let enumerate_iter ?(budget = Budget.unlimited) ~nvars ~project
    ?(limit = max_int) iter =
  let s = make ~nvars in
  iter (fun (buf : int array) off len ->
      seed_clause_slice s buf off len;
      assert_clause_slice s buf off len);
  enumerate_loop ~budget ~project ~limit s
