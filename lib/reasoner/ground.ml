module SMap = Logic.Names.SMap
module F = Logic.Formula
module ETbl = Structure.Element.Tbl

(* Grounding of FO(=, counting) sentences over a fixed finite domain into
   propositional clauses. One SAT variable per possible fact; Tseitin
   auxiliaries for the structure that plain CNF cannot take (see
   [assert_g]). Distinct domain elements are distinct (standard names
   for constants; labelled nulls are kept distinct — models with fused
   nulls are covered by smaller domains).

   The hot path is integer-only (see DESIGN.md, "hot-path data layout"):

   - Domain elements are interned to contiguous positions 0..|dom|-1 at
     creation, and every relation gets a dense variable block, so the
     variable of a fact R(e_0, .., e_{k-1}) is pure arithmetic —
     base_R + Σ pos(e_i)·|dom|^i (a mixed-radix tuple rank). No
     per-fact hashtable, for registration, grounding or model decoding.
   - Each formula is compiled once per assertion: quantified variables
     become integer slots into a preallocated assignment array, and
     constants and env-bound free variables are resolved to fixed
     domain positions at compile time. Quantifier expansion then loops
     over positions without allocating environments.
   - Clauses land in a growable flat [int] arena encoded as
     [len; lit_1; ..; lit_len] records, consumed by {!Dpll} as slices.
   - A bounded, process-wide memo keyed by (operation, |dom|, compiled
     formula) replays the emitted clause slice of a structurally
     identical grounding instead of re-expanding it: the compiled form
     embeds relation bases and element positions, so key equality
     guarantees the recorded literals are valid verbatim (auxiliary
     variables above the recording boundary are shifted to fresh
     ones). *)

type rel_info = {
  base : int;  (* first fact variable of the relation's block *)
  arity : int;
  count : int;  (* |dom|^arity *)
}

type t = {
  domain : Structure.Element.t array;  (* deduplicated; index = position *)
  elem_pos : int ETbl.t;  (* element -> position *)
  rels : (string, rel_info) Hashtbl.t;
  mutable rels_rev : (string * rel_info) list;  (* reverse registration order *)
  mutable nvars : int;
  mutable arena : int array;  (* [len; lits..] records *)
  mutable arena_len : int;
  mutable pending_pos : int;  (* arena offset of the first undrained clause *)
  mutable known : Logic.Signature.t;  (* relations with registered facts *)
  mutable budget : Budget.t;  (* checked per relation, subformula, clause *)
  mutable memo_hits : int;  (* circuits this grounding replayed from the memo *)
  mutable memo_misses : int;  (* circuits it expanded and recorded *)
}

type env = Structure.Element.t SMap.t

exception Unbound_variable of string

let ipow b e =
  let r = ref 1 in
  for _ = 1 to e do
    r := !r * b
  done;
  !r

(* Register a dense fact-variable block per relation (idempotent per
   relation), so model extraction sees a stable variable layout. *)
let register_signature t signature =
  List.iter
    (fun (rel, arity) ->
      if not (Hashtbl.mem t.rels rel) then begin
        Budget.checkpoint t.budget;
        let count = ipow (Array.length t.domain) arity in
        let info = { base = t.nvars + 1; arity; count } in
        Hashtbl.replace t.rels rel info;
        t.rels_rev <- (rel, info) :: t.rels_rev;
        t.nvars <- t.nvars + count
      end)
    (Logic.Signature.to_list signature);
  t.known <- Logic.Signature.union t.known signature

let create ?(budget = Budget.unlimited) ~domain ~signature () =
  let seen = ETbl.create 16 in
  let deduped =
    List.filter
      (fun e ->
        if ETbl.mem seen e then false
        else begin
          ETbl.replace seen e ();
          true
        end)
      domain
  in
  let domain = Array.of_list deduped in
  let elem_pos = ETbl.create (2 * max (Array.length domain) 1) in
  Array.iteri (fun i e -> ETbl.replace elem_pos e i) domain;
  let t =
    {
      domain;
      elem_pos;
      rels = Hashtbl.create 16;
      rels_rev = [];
      nvars = 0;
      arena = Array.make 256 0;
      arena_len = 0;
      pending_pos = 0;
      known = Logic.Signature.empty;
      budget;
      memo_hits = 0;
      memo_misses = 0;
    }
  in
  register_signature t signature;
  t

let set_budget t b = t.budget <- b
let memo_counts t = (t.memo_hits, t.memo_misses)

(* Admit further relations after creation (for sessions that must answer
   queries whose signature was unknown at grounding time). The new
   relations' variable blocks are appended after the existing ones, so
   earlier bases — and hence memoized circuits — stay valid. *)
let ensure_signature t signature =
  if not (Logic.Signature.subset signature t.known) then
    register_signature t signature

let nvars t = t.nvars

let fact_var t (f : Structure.Instance.fact) =
  let outside () =
    invalid_arg
      (Fmt.str "Ground.fact_var: fact %a outside the signature"
         Structure.Instance.pp_fact f)
  in
  match Hashtbl.find_opt t.rels f.rel with
  | Some info when info.arity = List.length f.args ->
      let radix = Array.length t.domain in
      let rank = ref 0 in
      let mul = ref 1 in
      List.iter
        (fun e ->
          match ETbl.find_opt t.elem_pos e with
          | Some p ->
              rank := !rank + (p * !mul);
              mul := !mul * radix
          | None -> outside ())
        f.args;
      info.base + !rank
  | _ -> outside ()

(* Fact variables fill the relation blocks; every other variable is a
   Tseitin auxiliary. [rels_rev] lists the blocks by descending base, so
   the first block starting at or below [v] is the only one that can
   hold it — for auxiliaries allocated after the last registration, the
   head of the list. *)
let is_fact_var t v =
  match List.find_opt (fun (_, info) -> info.base <= v) t.rels_rev with
  | Some (_, info) -> v < info.base + info.count
  | None -> false

let fresh_aux t =
  t.nvars <- t.nvars + 1;
  t.nvars

(* ------------------------------------------------------------------ *)
(* The clause arena                                                     *)
(* ------------------------------------------------------------------ *)

let arena_reserve t n =
  if t.arena_len + n > Array.length t.arena then begin
    let bigger =
      Array.make (max (t.arena_len + n) (2 * Array.length t.arena)) 0
    in
    Array.blit t.arena 0 bigger 0 t.arena_len;
    t.arena <- bigger
  end

(* One [Budget.charge_clause] per emitted ground clause: this is the
   grounding cap's unit of account, and clause emission dominates
   grounding cost, so deadlines are also observed here. Charged before
   the clause lands. *)
let emit_clause0 t =
  Budget.charge_clause t.budget;
  arena_reserve t 1;
  t.arena.(t.arena_len) <- 0;
  t.arena_len <- t.arena_len + 1

let emit_clause1 t l =
  Budget.charge_clause t.budget;
  arena_reserve t 2;
  t.arena.(t.arena_len) <- 1;
  t.arena.(t.arena_len + 1) <- l;
  t.arena_len <- t.arena_len + 2

let emit_clause2 t a b =
  Budget.charge_clause t.budget;
  arena_reserve t 3;
  t.arena.(t.arena_len) <- 2;
  t.arena.(t.arena_len + 1) <- a;
  t.arena.(t.arena_len + 2) <- b;
  t.arena_len <- t.arena_len + 3

let emit_clause_list t lits =
  Budget.charge_clause t.budget;
  let len = List.length lits in
  arena_reserve t (len + 1);
  t.arena.(t.arena_len) <- len;
  let i = ref (t.arena_len + 1) in
  List.iter
    (fun l ->
      t.arena.(!i) <- l;
      incr i)
    lits;
  t.arena_len <- !i

(* Iterate clause slices of arena.[from..t.arena_len). *)
let iter_arena t from f =
  let i = ref from in
  while !i < t.arena_len do
    let len = t.arena.(!i) in
    f t.arena (!i + 1) len;
    i := !i + len + 1
  done

let iter_clauses t f = iter_arena t 0 f

let iter_pending t f =
  iter_arena t t.pending_pos f;
  t.pending_pos <- t.arena_len

(* ------------------------------------------------------------------ *)
(* Formula compilation: variables to slots, elements to positions       *)
(* ------------------------------------------------------------------ *)

(* Terms in compiled formulas: slot index if >= 0, fixed domain
   position -(p+1) if negative (constants and env-bound free variables
   are resolved at compile time). *)
type cf =
  | CTrue
  | CFalse
  | CAtom of int * int array  (* relation base, compiled terms *)
  | CEq of int * int
  | CNot of cf
  | CAnd of cf * cf
  | COr of cf * cf
  | CImplies of cf * cf
  | CForall of int array * cf  (* slots bound by the quantifier *)
  | CExists of int array * cf
  | CCountGeq of int * int * cf  (* n, slot, body *)

(* Compile [f] under [env]; returns the compiled formula and the number
   of quantifier slots it uses. Raises [Unbound_variable] for free
   variables missing from [env], and [Invalid_argument] for relations
   or elements outside the grounding (same contract as [fact_var]). *)
let compile t env (f : F.t) =
  let nslots = ref 0 in
  let fresh_slot () =
    let s = !nslots in
    incr nslots;
    s
  in
  let position e =
    match ETbl.find_opt t.elem_pos e with
    | Some p -> p
    | None ->
        invalid_arg
          (Fmt.str "Ground: element %a outside the domain" Structure.Element.pp
             e)
  in
  let cterm cenv = function
    | Logic.Term.Const c -> -position (Structure.Element.Const c) - 1
    | Logic.Term.Var v -> (
        match SMap.find_opt v cenv with
        | Some s -> s
        | None -> (
            match SMap.find_opt v env with
            | Some e -> -position e - 1
            | None -> raise (Unbound_variable v)))
  in
  let rec go cenv (f : F.t) =
    match f with
    | F.True -> CTrue
    | F.False -> CFalse
    | F.Atom (r, ts) -> (
        let arity = List.length ts in
        match Hashtbl.find_opt t.rels r with
        | Some info when info.arity = arity ->
            CAtom (info.base, Array.of_list (List.map (cterm cenv) ts))
        | _ ->
            invalid_arg
              (Fmt.str "Ground: relation %s/%d outside the signature" r arity))
    | F.Eq (a, b) -> (
        match (cterm cenv a, cterm cenv b) with
        | x, y when x < 0 && y < 0 -> if x = y then CTrue else CFalse
        | x, y -> CEq (x, y))
    | F.Not g -> CNot (go cenv g)
    | F.And (a, b) -> CAnd (go cenv a, go cenv b)
    | F.Or (a, b) -> COr (go cenv a, go cenv b)
    | F.Implies (a, b) -> CImplies (go cenv a, go cenv b)
    | F.Forall (vs, g) ->
        let slots = List.map (fun v -> (v, fresh_slot ())) vs in
        let cenv =
          List.fold_left (fun m (v, s) -> SMap.add v s m) cenv slots
        in
        CForall (Array.of_list (List.map snd slots), go cenv g)
    | F.Exists (vs, g) ->
        let slots = List.map (fun v -> (v, fresh_slot ())) vs in
        let cenv =
          List.fold_left (fun m (v, s) -> SMap.add v s m) cenv slots
        in
        CExists (Array.of_list (List.map snd slots), go cenv g)
    | F.CountGeq (n, v, g) ->
        let s = fresh_slot () in
        CCountGeq (n, s, go (SMap.add v s cenv) g)
  in
  let cf = go SMap.empty f in
  (cf, !nslots)

(* ------------------------------------------------------------------ *)
(* Compiled formula -> ground circuit                                   *)
(* ------------------------------------------------------------------ *)

type g =
  | GTrue
  | GFalse
  | GLit of int
  | GAnd of g list
  | GOr of g list

let gand parts =
  let rec go acc = function
    | [] -> ( match acc with [] -> GTrue | [ x ] -> x | xs -> GAnd xs)
    | GTrue :: rest -> go acc rest
    | GFalse :: _ -> GFalse
    | GAnd xs :: rest -> go acc (xs @ rest)
    | x :: rest -> go (x :: acc) rest
  in
  go [] parts

let gor parts =
  let rec go acc = function
    | [] -> ( match acc with [] -> GFalse | [ x ] -> x | xs -> GOr xs)
    | GFalse :: rest -> go acc rest
    | GTrue :: _ -> GTrue
    | GOr xs :: rest -> go acc (xs @ rest)
    | x :: rest -> go (x :: acc) rest
  in
  go [] parts

(* All subsets of size n of a list (n small). *)
let rec subsets n = function
  | _ when n = 0 -> [ [] ]
  | [] -> []
  | x :: rest ->
      List.map (fun s -> x :: s) (subsets (n - 1) rest) @ subsets n rest

(* Literal equisatisfiably representing [g] (full Tseitin equivalence,
   so the literal is sound under either polarity). *)
let rec lit_of t g =
  match g with
  | GTrue | GFalse -> assert false (* removed by smart constructors *)
  | GLit l -> l
  | GAnd parts ->
      let ls = List.map (lit_of t) parts in
      let a = fresh_aux t in
      List.iter (fun l -> emit_clause2 t (-a) l) ls;
      emit_clause_list t (a :: List.map (fun l -> -l) ls);
      a
  | GOr parts ->
      let ls = List.map (lit_of t) parts in
      let a = fresh_aux t in
      List.iter (fun l -> emit_clause2 t (-l) a) ls;
      emit_clause_list t (-a :: ls);
      a

(* Reified binary or/and over literals (full equivalences), the nodes of
   the cardinality ladder below. *)
let or2 t x y =
  let a = fresh_aux t in
  emit_clause2 t (-x) a;
  emit_clause2 t (-y) a;
  emit_clause_list t [ -a; x; y ];
  a

let and2 t x y =
  let a = fresh_aux t in
  emit_clause2 t (-a) x;
  emit_clause2 t (-a) y;
  emit_clause_list t [ a; -x; -y ];
  a

(* Literal equivalent to "at least [k] of [bs] hold" (1 <= k <= |bs|),
   as a sequential-counter ladder: row.(j) is the literal for ">= j of
   the literals seen so far" (0 encodes constant false), updated per
   literal by s(i,j) = s(i-1,j) or (b_i and s(i-1,j-1)). O(|bs|*k)
   ternary nodes, against the C(|bs|,k) subset expansion. Every node is
   a full equivalence, so the result is sound under either polarity. *)
let atleast_lit t k bs =
  let row = Array.make (k + 1) 0 in
  List.iteri
    (fun i b ->
      for j = min (i + 1) k downto 2 do
        let carry = if row.(j - 1) = 0 then 0 else and2 t b row.(j - 1) in
        if row.(j) = 0 then row.(j) <- carry
        else if carry <> 0 then row.(j) <- or2 t row.(j) carry
      done;
      row.(1) <- (if row.(1) = 0 then b else or2 t row.(1) b))
    bs;
  row.(k)

(* min (C(n,k), cap + 1) without overflow, to pick the counting encoding. *)
let binom_capped n k cap =
  let k = min k (n - k) in
  if k < 0 then 0
  else begin
    let r = ref 1 in
    let i = ref 1 in
    while !i <= k && !r <= cap do
      r := !r * (n - k + !i) / !i;
      incr i
    done;
    !r
  end

(* Counting nodes switch from subset expansion to the ladder once the
   number of subsets passes this (subsets are slightly better for the
   solver on small nodes, and keep small-instance clause counts stable). *)
let subset_limit = 64

(* Evaluate a compiled formula to a ground circuit. [slots] is the
   preallocated assignment array (slot -> domain position), mutated in
   place by quantifier loops — no environment allocation per binding.
   Wide counting nodes reify their ladder inline (the only emission
   during evaluation); everything else touches no shared state until
   the Tseitin clauses are emitted, and a budget trip mid-evaluation
   only ever abandons whole clauses, never partial ones. *)
let rec eval t slots sign (cf : cf) =
  Budget.checkpoint t.budget;
  match cf with
  | CTrue -> if sign then GTrue else GFalse
  | CFalse -> if sign then GFalse else GTrue
  | CAtom (base, terms) ->
      let radix = Array.length t.domain in
      let rank = ref 0 in
      let mul = ref 1 in
      Array.iter
        (fun tm ->
          let p = if tm >= 0 then slots.(tm) else -tm - 1 in
          rank := !rank + (p * !mul);
          mul := !mul * radix)
        terms;
      let v = base + !rank in
      GLit (if sign then v else -v)
  | CEq (a, b) ->
      let pa = if a >= 0 then slots.(a) else -a - 1 in
      let pb = if b >= 0 then slots.(b) else -b - 1 in
      if (pa = pb) = sign then GTrue else GFalse
  | CNot g -> eval t slots (not sign) g
  | CAnd (a, b) ->
      if sign then gand [ eval t slots true a; eval t slots true b ]
      else gor [ eval t slots false a; eval t slots false b ]
  | COr (a, b) ->
      if sign then gor [ eval t slots true a; eval t slots true b ]
      else gand [ eval t slots false a; eval t slots false b ]
  | CImplies (a, b) ->
      if sign then gor [ eval t slots false a; eval t slots true b ]
      else gand [ eval t slots true a; eval t slots false b ]
  | CForall (ss, g) ->
      let parts = expand t slots ss sign g in
      if sign then gand parts else gor parts
  | CExists (ss, g) ->
      let parts = expand t slots ss sign g in
      if sign then gor parts else gand parts
  | CCountGeq (n, sl, g) ->
      let radix = Array.length t.domain in
      if n > 0 && binom_capped radix n subset_limit > subset_limit then begin
        (* Wide counting node: reify the body at each position and build
           the sequential-counter ladder instead of enumerating subsets.
           Statically-true bodies lower the threshold, statically-false
           ones drop out of the count. *)
        let fixed = ref 0 in
        let lits = ref [] in
        let nlits = ref 0 in
        for p = radix - 1 downto 0 do
          slots.(sl) <- p;
          match eval t slots true g with
          | GTrue -> incr fixed
          | GFalse -> ()
          | c ->
              lits := lit_of t c :: !lits;
              incr nlits
        done;
        let k = n - !fixed in
        if k <= 0 then if sign then GTrue else GFalse
        else if k > !nlits then if sign then GFalse else GTrue
        else
          match atleast_lit t k !lits with
          | 0 -> assert false (* k <= |lits| leaves a real ladder node *)
          | l -> GLit (if sign then l else -l)
      end
      else
        let positions = List.init radix Fun.id in
        if sign then
          (* some n distinct witnesses all satisfy g *)
          gor
            (List.map
               (fun s ->
                 gand
                   (List.map
                      (fun p ->
                        slots.(sl) <- p;
                        eval t slots true g)
                      s))
               (subsets n positions))
        else
          (* every choice of n distinct witnesses has a failure *)
          gand
            (List.map
               (fun s ->
                 gor
                   (List.map
                      (fun p ->
                        slots.(sl) <- p;
                        eval t slots false g)
                      s))
               (subsets n positions))

(* Enumerate all assignments of the quantifier slots [ss] over domain
   positions, collecting the circuit of each binding (in domain order,
   rightmost slot fastest — the order the SMap recursion produced). *)
and expand t slots ss sign g =
  let radix = Array.length t.domain in
  let nss = Array.length ss in
  let acc = ref [] in
  let rec loop i =
    if i = nss then acc := eval t slots sign g :: !acc
    else
      for p = 0 to radix - 1 do
        slots.(ss.(i)) <- p;
        loop (i + 1)
      done
  in
  loop 0;
  List.rev !acc

(* ------------------------------------------------------------------ *)
(* Tseitin                                                              *)
(* ------------------------------------------------------------------ *)

(* Assert a ground circuit at top level (avoiding an auxiliary for the
   outermost and/or). A disjunction whose only non-literal part is one
   conjunction is distributed — l_1 ∨ .. ∨ l_k ∨ (c_1 ∧ .. ∧ c_m) is
   asserted as the m disjunctions c_j ∨ l_1 ∨ .. ∨ l_k, recursively —
   which is the plain CNF of Horn axioms such as ∃r.C ⊑ D, C ⊑ ∀r.D and
   C ⊑ D ⊓ E: one clause per leaf and no auxiliary, where Tseitin would
   reify every conjunct. Every other shape keeps Tseitin. *)
let rec assert_g t g =
  match g with
  | GTrue -> ()
  | GFalse -> emit_clause0 t
  | GLit l -> emit_clause1 t l
  | GAnd parts -> List.iter (assert_g t) parts
  | GOr parts -> (
      match List.partition (function GLit _ -> true | _ -> false) parts with
      | lits, [ GAnd conj ] ->
          List.iter (fun c -> assert_g t (gor (c :: lits))) conj
      | _ -> emit_clause_list t (List.map (lit_of t) parts))

(* ------------------------------------------------------------------ *)
(* The cross-session circuit memo                                       *)
(* ------------------------------------------------------------------ *)

(* Domain-local bounded LRU over completed groundings. The key is
   (operation, |dom|, compiled formula): the compiled form embeds
   relation bases and element positions, so two equal keys ground to
   literally identical clause slices — up to the auxiliary variables,
   which are contiguous above the recording-time variable count
   ([boundary]) and are shifted to fresh variables on replay. An entry
   is recorded only after its expansion completed, so a budget trip
   mid-emission never memoizes a partial circuit; replay itself charges
   the budget per clause, so caps and deadlines keep firing. *)

type memo_entry = {
  clauses : int array;  (* the emitted arena slice, [len; lits..] records *)
  n_aux : int;  (* auxiliaries allocated by the expansion *)
  boundary : int;  (* nvars when the expansion started *)
  result : int;  (* reified literal; 0 for plain assertions *)
  mutable stamp : int;  (* LRU clock *)
}

module MemoTbl = Hashtbl.Make (struct
  type t = int * int * cf  (* operation, |dom|, compiled formula *)

  let equal = ( = )

  (* The default polymorphic hash stops after 10 meaningful nodes,
     which collides reified instantiations differing only in deep leaf
     positions; hash deeper (keys are compiled formulas, so this is
     still cheap and allocation-free). *)
  let hash k = Hashtbl.hash_param 100 256 k
end)

(* The memo is DOMAIN-LOCAL: one table, capacity and LRU clock per
   domain. The table is hot on every grounding and an unguarded shared
   Hashtbl corrupts under concurrent resize (and a mutex would serialize
   exactly the work the pool exists to spread), so each worker warms its
   own memo — shared-nothing, merged never. [clear_memo] and
   [set_memo_capacity] act on the calling domain only; see DESIGN.md §5,
   "Domain-locality invariants". *)
type memo_state = {
  table : memo_entry MemoTbl.t;
  mutable capacity : int;
  mutable clock : int;
}

let memo_key =
  Domain.DLS.new_key (fun () ->
      { table = MemoTbl.create 512; capacity = 256; clock = 0 })

let memo_state () = Domain.DLS.get memo_key

let clear_memo () = MemoTbl.reset (memo_state ()).table

let memo_size () = MemoTbl.length (memo_state ()).table

let set_memo_capacity n =
  let m = memo_state () in
  m.capacity <- max n 0;
  if m.capacity = 0 then MemoTbl.reset m.table

let memo_capacity () = (memo_state ()).capacity

(* Batch eviction: when the table crosses capacity, drop the oldest
   tenth in one stamp-ordered sweep, so workloads with more distinct
   circuits than capacity pay amortized O(log) per insert instead of a
   full-table scan per eviction. *)
let memo_evict m =
  if MemoTbl.length m.table > m.capacity then begin
    let entries =
      MemoTbl.fold (fun k e acc -> (e.stamp, k) :: acc) m.table []
    in
    let entries = List.sort (fun (a, _) (b, _) -> compare a b) entries in
    let doomed = MemoTbl.length m.table - (m.capacity * 9 / 10) in
    List.iteri
      (fun i (_, k) -> if i < doomed then MemoTbl.remove m.table k)
      entries
  end

(* Replay a recorded circuit: append the clause slice to the arena,
   shifting auxiliary variables (above the recording boundary) past the
   current variable count. Fact variables (at or below the boundary)
   are valid verbatim by key equality. Auxiliaries are allocated before
   emission so a budget trip mid-replay leaves every emitted literal
   backed by an allocated variable. *)
let memo_replay t e =
  let shift = t.nvars - e.boundary in
  t.nvars <- t.nvars + e.n_aux;
  let a = e.clauses in
  let n = Array.length a in
  let i = ref 0 in
  while !i < n do
    Budget.charge_clause t.budget;
    let len = a.(!i) in
    arena_reserve t (len + 1);
    let dst = t.arena_len in
    t.arena.(dst) <- len;
    for j = 1 to len do
      let l = a.(!i + j) in
      let v = abs l in
      let v' = if v <= e.boundary then v else v + shift in
      t.arena.(dst + j) <- (if l > 0 then v' else -v')
    done;
    t.arena_len <- dst + len + 1;
    i := !i + len + 1
  done;
  if e.result = 0 then 0
  else
    let v = abs e.result in
    let v' = if v <= e.boundary then v else v + shift in
    if e.result > 0 then v' else -v'

(* Ground via the memo: replay on a hit, otherwise run [expand] (which
   evaluates and emits, returning the reified literal or 0) and record
   the emitted slice. Hits and misses are counted on [t], the grounding
   that replayed or expanded, and appear in the profile table via the
   two span names. *)
let memoized t op cf expand =
  let m = memo_state () in
  if m.capacity = 0 then expand ()
  else begin
    let key = (op, Array.length t.domain, cf) in
    m.clock <- m.clock + 1;
    match MemoTbl.find_opt m.table key with
    | Some e ->
        e.stamp <- m.clock;
        t.memo_hits <- t.memo_hits + 1;
        Obs.Trace.with_span "ground.memo_replay" (fun () -> memo_replay t e)
    | None ->
        t.memo_misses <- t.memo_misses + 1;
        Obs.Trace.with_span "ground.memo_expand" (fun () ->
            let boundary = t.nvars in
            let start = t.arena_len in
            let result = expand () in
            let entry =
              {
                clauses = Array.sub t.arena start (t.arena_len - start);
                n_aux = t.nvars - boundary;
                boundary;
                result;
                stamp = m.clock;
              }
            in
            MemoTbl.replace m.table key entry;
            memo_evict m;
            result)
  end

(* ------------------------------------------------------------------ *)
(* Assertions                                                           *)
(* ------------------------------------------------------------------ *)

(* Operation tags for the memo key: asserting a circuit positively,
   negatively, and reifying it emit different clause sets. *)
let op_assert = 0
let op_refute = 1
let op_reify = 2

let assert_formula ?(env = SMap.empty) t f =
  let cf, nslots = compile t env f in
  ignore
    (memoized t op_assert cf (fun () ->
         let slots = Array.make (max nslots 1) 0 in
         assert_g t (eval t slots true cf);
         0))

let assert_negation ?(env = SMap.empty) t f =
  let cf, nslots = compile t env f in
  ignore
    (memoized t op_refute cf (fun () ->
         let slots = Array.make (max nslots 1) 0 in
         assert_g t (eval t slots false cf);
         0))

(* A literal equivalent to [f] under [env] (full Tseitin equivalence),
   for projected model enumeration. *)
let reify ?(env = SMap.empty) t f =
  let cf, nslots = compile t env f in
  memoized t op_reify cf (fun () ->
      let slots = Array.make (max nslots 1) 0 in
      match eval t slots true cf with
      | GTrue ->
          let a = fresh_aux t in
          emit_clause1 t a;
          a
      | GFalse ->
          let a = fresh_aux t in
          emit_clause1 t (-a);
          a
      | g -> lit_of t g)

let assert_instance t inst =
  Structure.Instance.iter_facts (fun f -> emit_clause1 t (fact_var t f)) inst

(* ------------------------------------------------------------------ *)
(* Solving and model extraction                                         *)
(* ------------------------------------------------------------------ *)

let model_to_instance t model =
  let base =
    Array.fold_left
      (fun inst e -> Structure.Instance.add_element e inst)
      Structure.Instance.empty t.domain
  in
  let radix = Array.length t.domain in
  let rec decode rank arity acc =
    if arity = 0 then List.rev acc
    else decode (rank / radix) (arity - 1) (t.domain.(rank mod radix) :: acc)
  in
  List.fold_left
    (fun inst (rel, info) ->
      let inst = ref inst in
      for rank = 0 to info.count - 1 do
        if model.(info.base + rank - 1) then
          inst :=
            Structure.Instance.add_fact
              (Structure.Instance.fact rel (decode rank info.arity []))
              !inst
      done;
      !inst)
    base
    (List.rev t.rels_rev)

let extract_model = model_to_instance

let solve t =
  match
    Dpll.solve_iter ~budget:t.budget ~nvars:t.nvars (fun f -> iter_clauses t f)
  with
  | Dpll.Unsat -> None
  | Dpll.Sat model -> Some (model_to_instance t model)

(* Every fact variable, in registration order (for projected model
   enumeration: distinct fact sets, not distinct auxiliary values). *)
let fact_vars t =
  List.concat_map
    (fun (_, info) -> List.init info.count (fun i -> info.base + i))
    (List.rev t.rels_rev)

let enumerate ?(limit = max_int) t =
  Dpll.enumerate_iter ~budget:t.budget ~nvars:t.nvars ~project:(fact_vars t)
    ~limit (fun f -> iter_clauses t f)
  |> List.map (model_to_instance t)

(* Enumerate the distinct truth-value combinations of the given
   (reified) literals over all models. *)
let enumerate_projections ?(limit = max_int) t lits =
  Dpll.enumerate_iter ~budget:t.budget ~nvars:t.nvars ~project:lits ~limit
    (fun f -> iter_clauses t f)
  |> List.map (fun model -> List.map (Dpll.lit_true model) lits)
