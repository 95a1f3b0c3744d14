(* A CDCL SAT solver: two-watched-literal propagation, 1-UIP conflict
   analysis with non-chronological backjumping, VSIDS branching at each
   variable's initial phase (no phase saving: a countermodel must not
   inherit the last model's facts, DESIGN.md §5 "Branching phase"), and
   geometric restarts, plus native reified cardinality constraints
   propagated by counting and probed for failed literals before their
   first search. Literals are non-zero integers ±v for 1-based
   variables.

   The solver is persistent and incremental: it survives across solves,
   accepts new variables and clauses between calls (keeping its learned
   clauses), and solves under assumption literals — assumptions are
   planted as the first decision levels, MiniSat-style, so refuting a
   query instantiation needs no clause retraction. The one-shot [solve]
   used by the bounded model finder is a thin wrapper. *)

type result =
  | Sat of bool array  (** index v-1 holds the value of variable v *)
  | Unsat

(* Clause memory, in MiniSat's layout (DESIGN.md §5, "Solver memory
   layout"):

   - Clauses of three or more literals, original and learned, are
     [len; lit_1; ..; lit_len] records in one growable [int] arena. A
     clause reference is the offset of its record; its first two
     literals are the watched ones.
   - Each literal has a growable vector of the references of the arena
     clauses watching it, compacted in place by [propagate].
   - Binary clauses are implicit: the clause (a ∨ b) is b in the binary
     vector of a and a in that of b, and nothing else. A literal's
     binary vector lists what its falsification implies.
   - [reason] says why a variable holds its value: -1 for a decision
     or a level-0 unit, an arena reference for a long clause or a
     cardinality constraint, and [bin_reason f] for a binary clause
     whose other literal f is false.
   - A reified cardinality constraint l <-> (at least k of b_1..b_n) is
     a [-n; k; ntrue; nfalse; l; b_1..b_n] record in the same arena: the
     negative header tells it from a clause. [ntrue]/[nfalse] count the
     b's made true/false by the trail entries below [qhead] (the ones
     [propagate] has taken), and each literal's [cards] vector lists the
     constraints it occurs in, as l or as a b (once per occurrence). A
     constraint is a reason or conflict code like any arena reference:
     [iter_reason] builds its clause on demand, from the literals
     assigned before the implied one ([tpos]), so nothing is appended
     per propagation. [cards] and [tpos] are allocated with the first
     constraint, so a solver that never gets one pays for neither.

   A vector is an [int array] holding its live length at index 0 and
   its entries after it, so a literal costs one pointer per vector
   kind. Every literal without entries shares [empty], which is never
   written: the first push allocates. *)

type t = {
  mutable nvars : int;
  mutable arena : int array;  (* [len; lits..] records of clauses of length >= 3 *)
  mutable arena_len : int;
  mutable watches : int array array;  (* literal index -> watching clause refs *)
  mutable bins : int array array;  (* literal index -> literals its falsity implies *)
  mutable cards : int array array;  (* literal index -> constraints it occurs in *)
  mutable has_cards : bool;  (* some constraint was added; [cards], [tpos] live *)
  mutable unprobed : int list;  (* constraints added since the last probe *)
  mutable assign : int array;  (* 0 / 1 / -1 *)
  mutable level : int array;
  mutable reason : int array;  (* -1, an arena ref, or [bin_reason f] *)
  mutable tpos : int array;  (* trail position of an assigned variable *)
  mutable confl_other : int;  (* the second false literal of a binary conflict *)
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
  mutable phase : bool array;  (* the value a decision sets; never saved *)
  mutable seen : bool array;  (* scratch for conflict analysis *)
  mutable scratch : int array;  (* scratch for clause simplification *)
  mutable learnt : int array;  (* scratch for the learned clause *)
  mutable expl : int array;  (* scratch for a constraint's explanation *)
  mutable broken : bool;  (* refuted at level 0: permanently unsat *)
  mutable core : int list;  (* failed-assumption core of the last Unsat *)
  mutable n_decisions : int;
  mutable n_propagations : int;
  mutable n_conflicts : int;
}

let lit_index l = if l > 0 then 2 * (l - 1) else (2 * (-l - 1)) + 1
let lit_var l = abs l - 1

(* The reason (or conflict) code of a binary clause whose other literal
   [f] is false: below -1, so it never collides with an arena reference
   or with "no reason". *)
let bin_reason f = -2 - lit_index f

let bin_other r =
  let i = -2 - r in
  if i land 1 = 0 then (i lsr 1) + 1 else -((i lsr 1) + 1)

let value s l =
  let v = s.assign.(lit_var l) in
  if v = 0 then 0 else if (l > 0) = (v = 1) then 1 else -1

(* The vector of every literal without entries (see above). *)
let empty = [| 0 |]

let make ~nvars =
  {
    nvars;
    arena = Array.make 64 0;
    arena_len = 0;
    watches = Array.make (max (2 * nvars) 2) empty;
    bins = Array.make (max (2 * nvars) 2) empty;
    cards = [||];
    has_cards = false;
    unprobed = [];
    assign = Array.make (max nvars 1) 0;
    level = Array.make (max nvars 1) 0;
    reason = Array.make (max nvars 1) (-1);
    tpos = [||];
    confl_other = 0;
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
    learnt = Array.make 16 0;
    expl = [||];
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

(* Append [x] to vector [i] of [data], doubling its buffer when full
   (the first one is allocated inline, with room for 4). *)
let push data i x =
  let buf = data.(i) in
  let n = buf.(0) + 1 in
  if n < Array.length buf then begin
    buf.(n) <- x;
    buf.(0) <- n
  end
  else if n = 1 then data.(i) <- [| 1; x; 0; 0; 0 |]
  else begin
    let bigger = Array.make (2 * n) 0 in
    Array.blit buf 0 bigger 0 n;
    bigger.(0) <- n;
    bigger.(n) <- x;
    data.(i) <- bigger
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

(* Admit variables 1..n (idempotent), each with its decision flag; only
   decision variables enter the order heap. The per-variable arrays
   start with a quarter of headroom and then grow by half, so the
   variables that query reifications add after a bulk load (a few
   dozen on the corpus, a quarter more on bulk-eval) cost at most one
   more copy of each array. *)
let ensure_nvars ?decision s n =
  if n > s.nvars then begin
    let old = Array.length s.assign in
    if n > old then begin
      let cap = max (n + (n / 4)) (old + (old / 2)) in
      let resize a len def =
        let b = Array.make len def in
        Array.blit a 0 b 0 (Array.length a);
        b
      in
      s.watches <- resize s.watches (2 * cap) empty;
      s.bins <- resize s.bins (2 * cap) empty;
      s.assign <- resize s.assign cap 0;
      s.level <- resize s.level cap 0;
      s.reason <- resize s.reason cap (-1);
      s.trail <- resize s.trail cap 0;
      s.activity <- resize s.activity cap 0.0;
      s.phase <- resize s.phase cap false;
      s.decision <- resize s.decision cap true;
      s.seen <- resize s.seen cap false;
      s.heap <- resize s.heap cap 0;
      s.heap_pos <- resize s.heap_pos cap (-1);
      if s.has_cards then begin
        s.cards <- resize s.cards (2 * cap) empty;
        s.tpos <- resize s.tpos cap 0
      end
    end;
    let first = s.nvars in
    s.nvars <- n;
    Option.iter
      (fun d ->
        for v = first to n - 1 do
          s.decision.(v) <- d (v + 1)
        done)
      decision;
    for v = first to n - 1 do
      heap_insert s v
    done
  end

(* Decision levels can exceed nvars when assumptions open dummy levels. *)
let ensure_levels s n = s.trail_lim <- grow_array s.trail_lim n 0

let counters s = (s.n_decisions, s.n_propagations, s.n_conflicts)

(* Enqueue an implied (or decided) literal. *)
let enqueue s l reason =
  let v = lit_var l in
  s.assign.(v) <- (if l > 0 then 1 else -1);
  s.level.(v) <- s.decision_level;
  s.reason.(v) <- reason;
  if s.has_cards then s.tpos.(v) <- s.trail_size;
  s.trail.(s.trail_size) <- l;
  s.trail_size <- s.trail_size + 1

let watch s l cr = push s.watches (lit_index l) cr

(* Store the clause buf.[0..len) (len >= 2) and watch it: a binary one in
   the binary vectors, a longer one as a new arena record watched by
   its first two literals. Returns the reason code under which buf.(0)
   is implied once the rest is false. *)
let attach s buf len =
  if len = 2 then begin
    let a = buf.(0) and b = buf.(1) in
    push s.bins (lit_index a) b;
    push s.bins (lit_index b) a;
    bin_reason b
  end
  else begin
    let cr = s.arena_len in
    s.arena <- grow_array s.arena (cr + len + 1) 0;
    s.arena.(cr) <- len;
    Array.blit buf 0 s.arena (cr + 1) len;
    s.arena_len <- cr + len + 1;
    watch s buf.(0) cr;
    watch s buf.(1) cr;
    cr
  end

(* Field offsets of a constraint record [-n; k; ntrue; nfalse; l; b_1..b_n]. *)
let c_k = 1
let c_true = 2
let c_false = 3
let c_lit = 4
let c_bs = 5

(* Undo what [propagate] counted when it took the trail literal [p]:
   one true b per occurrence of [p], one false b per occurrence of -p
   (an occurrence as a constraint's l is not counted). *)
let uncount s p =
  let a = s.arena in
  let cs = s.cards.(lit_index p) in
  for i = 1 to cs.(0) do
    let cr = cs.(i) in
    if a.(cr + c_lit) <> p then a.(cr + c_true) <- a.(cr + c_true) - 1
  done;
  let cs = s.cards.(lit_index (-p)) in
  for i = 1 to cs.(0) do
    let cr = cs.(i) in
    if a.(cr + c_lit) <> -p then a.(cr + c_false) <- a.(cr + c_false) - 1
  done

(* Only the trail entries below [qhead] were counted, so only they are
   uncounted. *)
let cancel_until s lvl =
  if s.decision_level > lvl then begin
    let bound = s.trail_lim.(lvl) in
    for i = s.trail_size - 1 downto bound do
      if s.has_cards && i < s.qhead then uncount s s.trail.(i);
      let v = lit_var s.trail.(i) in
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
    if not !sat then
      match !k with
      | 0 -> s.broken <- true
      | 1 -> enqueue s s.scratch.(0) (-1)
      | k -> ignore (attach s s.scratch k)
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
   next solve starts from a valid heap, with no rebuild. A variable that
   may not be branched on is not in the heap and is skipped. *)
let seed_lit s w l =
  let v = lit_var l in
  ensure_nvars s (v + 1);
  if s.decision.(v) then begin
    s.activity.(v) <- s.activity.(v) +. w;
    heap_update s v
  end

(* The weight of a clause of [len] literals: 2^-min(len, 30). *)
let weight len = Float.ldexp 1.0 (-min len 30)

let seed_clause s c =
  let w = weight (List.length c) in
  List.iter (seed_lit s w) c

let seed_clause_slice s a off len =
  let w = weight len in
  for i = off to off + len - 1 do
    seed_lit s w a.(i)
  done

(* Constraint propagation. [card_check] reads the counts of constraint
   [cr] after an event (a b or l assigned) and returns -1, or [cr] when
   the constraint is violated; the literals it implies are enqueued
   with [cr] as their reason. *)

(* Enqueue every unassigned b of [cr], true when [pos], else false. *)
let card_force s cr pos =
  let a = s.arena in
  for j = cr + c_bs to cr + c_bs - 1 - a.(cr) do
    let b = a.(j) in
    if value s b = 0 then enqueue s (if pos then b else -b) cr
  done

(* The checks after any event: with l unassigned, k true b's imply l
   and n - k + 1 false ones imply ¬l; l true conflicts with n - k + 1
   false b's and forces the rest true at n - k; l false conflicts with
   k true b's and forces the rest false at k - 1. *)
let card_check s cr =
  let a = s.arena in
  let k = a.(cr + c_k) and l = a.(cr + c_lit) in
  let t = a.(cr + c_true) and f = a.(cr + c_false) and slack = -a.(cr) - k in
  match value s l with
  | 0 ->
      if t >= k then enqueue s l cr else if f > slack then enqueue s (-l) cr;
      -1
  | 1 ->
      if f > slack then cr
      else begin
        if f = slack then card_force s cr true;
        -1
      end
  | _ ->
      if t >= k then cr
      else begin
        if t = k - 1 then card_force s cr false;
        -1
      end

(* Add the reified constraint [lit] <-> (at least [k] of
   buf.[off..off+n)) at level 0. Its counts start from the trail
   entries [propagate] has already taken; the check then runs once, so
   what the level-0 assignment implies is enqueued, and a violation
   refutes the solver. *)
let assert_atleast s ~lit ~k buf off n =
  if k < 1 || k > n then invalid_arg "Dpll.assert_atleast: k outside 1..n";
  cancel_until s 0;
  if not s.broken then begin
    if not s.has_cards then begin
      (* the first constraint: a solver without any pays for neither
         the [cards] vectors nor the trail positions *)
      s.cards <- Array.make (Array.length s.watches) empty;
      s.tpos <- Array.make (Array.length s.assign) 0;
      for i = 0 to s.trail_size - 1 do
        s.tpos.(lit_var s.trail.(i)) <- i
      done;
      s.has_cards <- true
    end;
    let top = ref (abs lit) in
    for i = off to off + n - 1 do
      if abs buf.(i) = abs lit then
        invalid_arg "Dpll.assert_atleast: the reified literal is one of its b's";
      top := max !top (abs buf.(i))
    done;
    ensure_nvars s !top;
    let cr = s.arena_len in
    s.arena <- grow_array s.arena (cr + c_bs + n) 0;
    let a = s.arena in
    a.(cr) <- -n;
    a.(cr + c_k) <- k;
    a.(cr + c_true) <- 0;
    a.(cr + c_false) <- 0;
    a.(cr + c_lit) <- lit;
    Array.blit buf off a (cr + c_bs) n;
    s.arena_len <- cr + c_bs + n;
    push s.cards (lit_index lit) cr;
    s.unprobed <- cr :: s.unprobed;
    for j = cr + c_bs to cr + c_bs + n - 1 do
      let b = a.(j) in
      push s.cards (lit_index b) cr;
      let v = lit_var b in
      if s.assign.(v) <> 0 && s.tpos.(v) < s.qhead then
        if value s b > 0 then a.(cr + c_true) <- a.(cr + c_true) + 1
        else a.(cr + c_false) <- a.(cr + c_false) + 1
    done;
    if card_check s cr <> -1 then s.broken <- true
  end

(* Unit propagation. For each literal taken off the trail, its
   falsified complement f first forces the other literal of every
   binary clause over f, then the arena clauses watching f look for a
   new watch; the watch vector is compacted in place as watches move.
   Last, the literal is counted into every constraint it occurs in —
   also after a conflict, so that the counts always cover exactly the
   entries below [qhead] — and each is checked while no conflict is
   found. Returns -1, or the conflicting code (a clause or constraint
   reference, or a [bin_reason] with the second false literal in
   [confl_other]). *)
let propagate s =
  let conflict = ref (-1) in
  while !conflict = -1 && s.qhead < s.trail_size do
    let l = s.trail.(s.qhead) in
    s.qhead <- s.qhead + 1;
    s.n_propagations <- s.n_propagations + 1;
    let falsified = -l in
    let fi = lit_index falsified in
    let bs = s.bins.(fi) in
    let nb = bs.(0) in
    let i = ref 1 in
    while !i <= nb do
      let b = bs.(!i) in
      incr i;
      match value s b with
      | 0 -> enqueue s b (bin_reason falsified)
      | -1 ->
          s.confl_other <- b;
          conflict := bin_reason falsified;
          i := nb + 1
      | _ -> ()
    done;
    let ws = s.watches.(fi) in
    let n = ws.(0) in
    if !conflict = -1 && n > 0 then begin
      let a = s.arena in
      let i = ref 1 and j = ref 1 in
      while !i <= n do
        let cr = ws.(!i) in
        incr i;
        (* normalise so that the second watch is the falsified one *)
        if a.(cr + 1) = falsified then begin
          a.(cr + 1) <- a.(cr + 2);
          a.(cr + 2) <- falsified
        end;
        let first = a.(cr + 1) in
        if value s first = 1 then begin
          (* already satisfied: keep watching *)
          ws.(!j) <- cr;
          incr j
        end
        else begin
          (* look for a new watch *)
          let last = cr + a.(cr) in
          let k = ref (cr + 3) in
          while !k <= last && value s a.(!k) = -1 do
            incr k
          done;
          if !k <= last then begin
            let w = a.(!k) in
            a.(cr + 2) <- w;
            a.(!k) <- falsified;
            watch s w cr
          end
          else begin
            (* unit or conflicting *)
            ws.(!j) <- cr;
            incr j;
            if value s first = -1 then begin
              conflict := cr;
              (* keep the remaining watchers *)
              while !i <= n do
                ws.(!j) <- ws.(!i);
                incr i;
                incr j
              done
            end
            else enqueue s first cr
          end
        end
      done;
      ws.(0) <- !j - 1
    end;
    if s.has_cards then begin
      let a = s.arena in
      let cs = s.cards.(lit_index l) in
      for i = 1 to cs.(0) do
        let cr = cs.(i) in
        if a.(cr + c_lit) <> l then a.(cr + c_true) <- a.(cr + c_true) + 1;
        if !conflict = -1 then conflict := card_check s cr
      done;
      let cs = s.cards.(fi) in
      for i = 1 to cs.(0) do
        let cr = cs.(i) in
        if a.(cr + c_lit) <> falsified then a.(cr + c_false) <- a.(cr + c_false) + 1;
        if !conflict = -1 then conflict := card_check s cr
      done
    end
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

(* The clause of constraint [cr] that implies [x] (that the assignment
   falsifies, for [x] = 0), built on demand: [f] gets each of its
   literals but [x], all false. It cites only literals assigned before
   [x], and of the b's that make its case the earliest on the trail:
   - l: ¬l or k true b's;
   - ¬l: l or n - k + 1 false b's;
   - a b forced true: ¬l and n - k false b's;
   - a b forced false: l and k - 1 true b's;
   - a conflict: ¬l and n - k + 1 false b's, or l and k true b's. *)
let iter_card s cr x f =
  let a = s.arena in
  let n = -a.(cr) and k = a.(cr + c_k) and l = a.(cr + c_lit) in
  let limit = if x = 0 then s.trail_size else s.tpos.(lit_var x) in
  let want, need =
    if x = l then (1, k)
    else if x = -l then (-1, n - k + 1)
    else if value s l > 0 then begin
      f (-l);
      (-1, if x = 0 then n - k + 1 else n - k)
    end
    else begin
      f l;
      (1, if x = 0 then k else k - 1)
    end
  in
  if Array.length s.expl < n then s.expl <- Array.make (max n (2 * Array.length s.expl)) 0;
  let e = s.expl in
  let m = ref 0 in
  for j = cr + c_bs to cr + c_bs + n - 1 do
    let b = a.(j) in
    if value s b = want && s.tpos.(lit_var b) < limit then begin
      e.(!m) <- b;
      incr m
    end
  done;
  assert (!m >= need);
  if !m > need then
    (* insertion sort by trail position: n is a domain's size *)
    for i = 1 to !m - 1 do
      let b = e.(i) in
      let p = s.tpos.(lit_var b) in
      let j = ref (i - 1) in
      while !j >= 0 && s.tpos.(lit_var e.(!j)) > p do
        e.(!j + 1) <- e.(!j);
        decr j
      done;
      e.(!j + 1) <- b
    done;
  for i = 0 to need - 1 do
    f (if want > 0 then -e.(i) else e.(i))
  done

(* Call [f] on every literal of the clause with reason or conflict code
   [r] except [skip]: the arena record of a reference (a constraint's
   clause made by [iter_card], [skip] = 0 for a conflict), the other
   literal of a binary code. *)
let iter_reason s r skip f =
  if r >= 0 then
    if s.arena.(r) < 0 then iter_card s r skip f
    else
      for k = r + 1 to r + s.arena.(r) do
        let l = s.arena.(k) in
        if l <> skip then f l
      done
  else f (bin_other r)

(* 1-UIP conflict analysis: the learned clause is left in
   learnt.[0..n), its asserting literal at 0; returns (n, backjump
   level). *)
let analyze s conflict =
  let counter = ref 0 in
  let n = ref 1 in
  let process l =
    let v = lit_var l in
    if (not s.seen.(v)) && s.level.(v) > 0 then begin
      s.seen.(v) <- true;
      bump s v;
      if s.level.(v) >= s.decision_level then incr counter
      else begin
        if !n = Array.length s.learnt then
          s.learnt <- grow_array s.learnt (2 * !n) 0;
        s.learnt.(!n) <- l;
        incr n
      end
    end
  in
  if conflict < -1 then process s.confl_other;
  iter_reason s conflict 0 process;
  let idx = ref (s.trail_size - 1) in
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
      s.learnt.(0) <- -l;
      continue := false
    end
    else iter_reason s s.reason.(v) l process
  done;
  let backjump = ref 0 in
  for i = 1 to !n - 1 do
    let v = lit_var s.learnt.(i) in
    s.seen.(v) <- false;
    backjump := max !backjump s.level.(v)
  done;
  (!n, !backjump)

(* The next branching variable: the most active unassigned decision
   variable. Once the heap is exhausted, every variable should be
   assigned — callers admit as non-decision only variables that unit
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

(* Record the learned clause learnt.[0..n) and enqueue its asserting
   literal (position 0). Position 1 is set to a literal of maximal level
   so the watch invariant holds after backjumping. Returns false on
   refutation. *)
let record_learned s n =
  let lits = s.learnt in
  match n with
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
      enqueue s lits.(0) (attach s lits n);
      true

(* MiniSat's [analyzeFinal]: assumption [p] was found false while being
   planted, so every decision level open so far is an assumption level.
   Walk the trail back from the top, following the reasons of the
   marked literals — arena clauses and binary clauses alike; the
   decisions reached are the assumptions whose propagation falsified
   [p]. Together with [p] they are unsatisfiable with the clauses alone.
   A [p] falsified at level 0 needs no other assumption. *)
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
        if r = -1 then core := l :: !core
        else
          iter_reason s r l (fun q ->
              let u = lit_var q in
              if s.level.(u) > 0 then s.seen.(u) <- true);
        s.seen.(x) <- false
      end
    done
  end;
  !core

(* Failed-literal probing of the constraints added since the last
   search, at level 0 once it is propagated. A b one step from fixing
   its constraint's unassigned literal l (k - 1 b's true, or n - k
   false) is tried at that value: when propagation refutes it, its
   negation is a level-0 unit. This finds what counting cannot see
   before the b is assigned: a guard clause b -> ¬l over one of l's own
   b's, as in ∀x (C(x) → ∀y (r(x,y) → ≤1 r⁻.⊤)), where r(a,b) is
   refuted by a second r-predecessor of b. The search, branching false
   first, would only meet r(a,b) when an existential forced it as a
   last witness, and learn the same unit after a descent through every
   other fact. [spend] is the search's budget checkpoint, called
   between probes at level 0. *)
let probe_lit s p =
  s.trail_lim.(0) <- s.trail_size;
  s.decision_level <- 1;
  enqueue s p (-1);
  let failed = propagate s <> -1 in
  cancel_until s 0;
  if failed then begin
    s.n_conflicts <- s.n_conflicts + 1;
    enqueue s (-p) (-1);
    if propagate s <> -1 then s.broken <- true
  end

let probe s spend =
  if propagate s <> -1 then s.broken <- true;
  let crs = List.rev s.unprobed in
  s.unprobed <- [];
  List.iter
    (fun cr ->
      let a = s.arena in
      let n = -a.(cr) and k = a.(cr + c_k) in
      if (not s.broken) && value s a.(cr + c_lit) = 0 then begin
        let pos = a.(cr + c_true) = k - 1 in
        if pos || a.(cr + c_false) = n - k then
          for j = cr + c_bs to cr + c_bs + n - 1 do
            let b = a.(j) in
            if (not s.broken) && value s b = 0 then begin
              spend ();
              probe_lit s (if pos then b else -b)
            end
          done
      end)
    crs

(* The CDCL loop, with [assumptions] planted as the first decision
   levels (one level per assumption, dummy levels for assumptions that
   are already true — MiniSat-style). Restarts cancel to level 0 and the
   assumptions are simply re-planted. An assumption found false against
   the level-0-closed prefix refutes the query without poisoning the
   solver: [broken] is only set by genuine level-0 conflicts. Constraints
   added since the last search are probed first (see [probe]). An Unsat
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
  (* Budget checkpoints sit between propagation/decision rounds (and
     between probes), where the solver's invariants hold: an
     [Exhausted] raised here leaves a consistent trail that the next
     call simply cancels to level 0, so an interrupted solver stays
     reusable. Fuel is debited by the actual CDCL effort (propagations
     + conflicts) since the previous checkpoint. *)
  let effort = ref (s.n_propagations + s.n_conflicts) in
  let tick () =
    let now = s.n_propagations + s.n_conflicts in
    let spent = now - !effort in
    effort := now;
    Budget.spend budget spent
  in
  if s.unprobed <> [] && not s.broken then probe s tick;
  if s.broken then false
  else begin
    let restart_budget = ref 100 in
    let conflicts = ref 0 in
    let rec loop () =
      tick ();
      let conflict = propagate s in
      if conflict <> -1 then begin
        incr conflicts;
        s.n_conflicts <- s.n_conflicts + 1;
        if s.decision_level = 0 then begin
          s.broken <- true;
          false
        end
        else begin
          let n, backjump = analyze s conflict in
          cancel_until s backjump;
          decay s;
          if not (record_learned s n) then begin
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
      let w = weight (List.length c) in
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
      let w = weight len in
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
