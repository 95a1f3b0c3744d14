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
     A grounding made with [~encoding:`Engine] also writes
     [-(n+2); k; l; b_1..b_n] records, one reified cardinality
     constraint l <-> (at least k of b_1..b_n) per wide counting node;
     the negative header tells them apart.
   - With [~encoding:`Engine], a nested quantifier node is grounded
     once per binding of its free slots ([CShared]); the rule and why
     it is sound are in ground.mli ("Sharing") and DESIGN.md, "Shared
     nested quantifier nodes". *)

type rel_info = {
  base : int;  (* first fact variable of the relation's block *)
  arity : int;
  count : int;  (* |dom|^arity *)
}

type t = {
  domain : Structure.Element.t array;  (* deduplicated; index = position *)
  first_null : int;  (* position of n_1; = |domain| without activity *)
  mutable act_base : int;  (* base of the [active] block; 0 without activity *)
  elem_pos : int ETbl.t;  (* element -> position *)
  rels : (string, rel_info) Hashtbl.t;
  mutable rels_rev : (string * rel_info) list;  (* reverse registration order *)
  mutable nvars : int;
  mutable arena : int array;  (* [len; lits..] records not yet drained *)
  mutable arena_len : int;
  mutable known : Logic.Signature.t;  (* relations with registered facts *)
  mutable budget : Budget.t;  (* checked per relation, subformula, clause *)
  encoding : [ `Reference | `Engine ];  (* counting encoding, sharing *)
}

type env = Structure.Element.t SMap.t

exception Unbound_variable of string

let ipow b e =
  let r = ref 1 in
  for _ = 1 to e do
    r := !r * b
  done;
  !r

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

(* One record, charged as one clause: the literal [l] is equivalent to
   "at least [k] of [bs] hold" (1 <= k <= n = |bs|). *)
let emit_atleast t k l bs n =
  Budget.charge_clause t.budget;
  arena_reserve t (n + 3);
  let a = t.arena and i = t.arena_len in
  a.(i) <- -(n + 2);
  a.(i + 1) <- k;
  a.(i + 2) <- l;
  List.iteri (fun j b -> a.(i + 3 + j) <- b) bs;
  t.arena_len <- i + n + 3

(* Iterate the records of the arena: clause slices to [f], constraints
   to [atleast] (k, l, and the slice of the b's). *)
let iter_records t ~atleast f =
  let i = ref 0 in
  while !i < t.arena_len do
    let h = t.arena.(!i) in
    if h >= 0 then begin
      f t.arena (!i + 1) h;
      i := !i + h + 1
    end
    else begin
      atleast ~k:t.arena.(!i + 1) ~lit:t.arena.(!i + 2) t.arena (!i + 3) (-h - 2);
      i := !i - h + 1
    end
  done

(* The clauses alone, for the one-shot solver paths, which take no
   constraint. *)
let iter_clauses t f =
  iter_records t f ~atleast:(fun ~k:_ ~lit:_ _ _ _ ->
      invalid_arg "Ground: a cardinality constraint on a one-shot solver path")

(* Drain: each record is handed over once and then leaves the arena, so
   a grounding feeding a persistent solver never holds a second copy of
   what the solver already stores. A large buffer is released rather
   than kept for the few clauses later reifications emit. *)
let iter_pending ?atleast t f =
  (match atleast with
  | Some atleast -> iter_records t ~atleast f
  | None -> iter_clauses t f);
  t.arena_len <- 0;
  if Array.length t.arena > 4096 then t.arena <- Array.make 256 0

(* ------------------------------------------------------------------ *)
(* Activity                                                             *)
(* ------------------------------------------------------------------ *)

(* A grounding with activity holds fresh nulls n_1..n_m at its last m
   positions, any prefix of which may be active. [active] is the unary
   relation of active elements; its name starts with a space, which
   every parser trims, so no user relation can clash with it. *)
let active = " active"

(* Each fact over a null implies that the null is active: one clause
   per tuple of the block that touches a null, citing the tuple's last
   null (the chain act(n_{j+1}) -> act(n_j) activates the ones before
   it). So an inactive null carries no fact, and the active elements
   carry a model of every guarded sentence on their own. *)
let activity_clauses t info =
  let radix = Array.length t.domain in
  for rank = 0 to info.count - 1 do
    let r = ref rank and top = ref (-1) in
    for _ = 1 to info.arity do
      top := max !top (!r mod radix);
      r := !r / radix
    done;
    if !top >= t.first_null then
      emit_clause2 t (-(info.base + rank)) (t.act_base + !top)
  done

(* The [active] block: every element of dom(D) is active (the first
   null too when there is none — interpretations are non-empty), and
   the active nulls form a prefix. *)
let activity_block t =
  let n = Array.length t.domain in
  let info = { base = t.nvars + 1; arity = 1; count = n } in
  t.nvars <- t.nvars + n;
  t.act_base <- info.base;
  for p = 0 to max t.first_null 1 - 1 do
    emit_clause1 t (info.base + p)
  done;
  for p = t.first_null + 1 to n - 1 do
    emit_clause2 t (-(info.base + p)) (info.base + p - 1)
  done;
  info

(* Register a dense fact-variable block per relation (idempotent per
   relation), so model extraction sees a stable variable layout. With
   activity, a block is registered only once its activity clauses are
   emitted: a budget trip in between leaves an unregistered block whose
   clauses constrain nothing, and the next registration starts over. *)
let register_signature t signature =
  List.iter
    (fun (rel, arity) ->
      if not (Hashtbl.mem t.rels rel) then begin
        Budget.checkpoint t.budget;
        let info =
          if rel = active then activity_block t
          else begin
            let count = ipow (Array.length t.domain) arity in
            let info = { base = t.nvars + 1; arity; count } in
            t.nvars <- t.nvars + count;
            if t.act_base > 0 then activity_clauses t info;
            info
          end
        in
        Hashtbl.replace t.rels rel info;
        t.rels_rev <- (rel, info) :: t.rels_rev
      end)
    (Logic.Signature.to_list signature);
  t.known <- Logic.Signature.union t.known signature

let create ?(budget = Budget.unlimited) ?(nulls = 0) ?(encoding = `Reference) ~domain
    ~signature () =
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
      first_null = Array.length domain - nulls;
      act_base = 0;
      elem_pos;
      rels = Hashtbl.create 16;
      rels_rev = [];
      nvars = 0;
      arena = Array.make 256 0;
      arena_len = 0;
      known = Logic.Signature.empty;
      budget;
      encoding;
    }
  in
  if nulls > 0 then
    register_signature t (Logic.Signature.add active 1 Logic.Signature.empty);
  register_signature t signature;
  t

let activity t j = t.act_base + t.first_null + j - 1

let set_budget t b = t.budget <- b

(* Admit further relations after creation (for sessions that must answer
   queries whose signature was unknown at grounding time). The new
   relations' variable blocks are appended after the existing ones, so
   earlier bases stay valid. *)
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
(* Formula compilation: variables to slots, elements to positions       *)
(* ------------------------------------------------------------------ *)

(* Ground circuits: what a compiled formula evaluates to under one
   binding of its slots. *)
type g =
  | GTrue
  | GFalse
  | GLit of int
  | GAnd of g list
  | GOr of g list

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
  | CShared of shared  (* a quantifier node met again per free binding *)

and shared = {
  free : int array;  (* the node's free slots *)
  node : cf;  (* a CForall, CExists or CCountGeq *)
  memo : (int, g) Hashtbl.t;
      (* rank of the free slots' positions -> GTrue, GFalse or the
         node's Tseitin literal, for the positive occurrence *)
}

module ISet = Set.Make (Int)

(* Compile [f] under [env]; returns the compiled formula and the number
   of quantifier slots it uses. Raises [Unbound_variable] for free
   variables missing from [env], and [Invalid_argument] for relations
   or elements outside the grounding (same contract as [fact_var]).

   With the [`Engine] encoding, a quantifier node whose free slots are
   fewer than the [bound] slots of its enclosing quantifiers becomes a
   [CShared] node: free slots are always among the enclosing ones, so
   "fewer" means some enclosing slot is missing and the node repeats
   under its bindings. Free slots are collected only under [`Engine]:
   under [`Reference] every set is empty and nothing is shared. *)
let compile t env (f : F.t) =
  let share = t.encoding = `Engine in
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
  let slots_of terms =
    if share then
      Array.fold_left
        (fun acc tm -> if tm >= 0 then ISet.add tm acc else acc)
        ISet.empty terms
    else ISet.empty
  in
  let bind cenv vs =
    let slots = List.map (fun v -> (v, fresh_slot ())) vs in
    ( List.fold_left (fun m (v, s) -> SMap.add v s m) cenv slots,
      Array.of_list (List.map snd slots) )
  in
  (* A quantifier node binding [ss] over a body with free slots
     [body_free], under [bound] enclosing slots. *)
  let quantifier bound ss body_free node =
    let free = Array.fold_left (fun acc s -> ISet.remove s acc) body_free ss in
    if share && ISet.cardinal free < bound then
      ( CShared
          { free = Array.of_list (ISet.elements free); node; memo = Hashtbl.create 16 },
        free )
    else (node, free)
  in
  let rec go cenv bound (f : F.t) =
    match f with
    | F.True -> (CTrue, ISet.empty)
    | F.False -> (CFalse, ISet.empty)
    | F.Atom (r, ts) -> (
        let arity = List.length ts in
        match Hashtbl.find_opt t.rels r with
        | Some info when info.arity = arity ->
            let terms = Array.of_list (List.map (cterm cenv) ts) in
            (CAtom (info.base, terms), slots_of terms)
        | _ ->
            invalid_arg
              (Fmt.str "Ground: relation %s/%d outside the signature" r arity))
    | F.Eq (a, b) -> (
        match (cterm cenv a, cterm cenv b) with
        | x, y when x < 0 && y < 0 -> ((if x = y then CTrue else CFalse), ISet.empty)
        | x, y -> (CEq (x, y), slots_of [| x; y |]))
    | F.Not g ->
        let c, free = go cenv bound g in
        (CNot c, free)
    | F.And (a, b) -> binary cenv bound (fun x y -> CAnd (x, y)) a b
    | F.Or (a, b) -> binary cenv bound (fun x y -> COr (x, y)) a b
    | F.Implies (a, b) -> binary cenv bound (fun x y -> CImplies (x, y)) a b
    | F.Forall (vs, g) ->
        let cenv, ss = bind cenv vs in
        let body, free = go cenv (bound + Array.length ss) g in
        quantifier bound ss free (CForall (ss, body))
    | F.Exists (vs, g) ->
        let cenv, ss = bind cenv vs in
        let body, free = go cenv (bound + Array.length ss) g in
        quantifier bound ss free (CExists (ss, body))
    | F.CountGeq (n, v, g) ->
        let cenv, ss = bind cenv [ v ] in
        let body, free = go cenv (bound + 1) g in
        quantifier bound ss free (CCountGeq (n, ss.(0), body))
  and binary cenv bound mk a b =
    let ca, fa = go cenv bound a in
    let cb, fb = go cenv bound b in
    (mk ca cb, ISet.union fa fb)
  in
  let cf, _ = go SMap.empty 0 f in
  (cf, !nslots)

(* ------------------------------------------------------------------ *)
(* Compiled formula -> ground circuit                                   *)
(* ------------------------------------------------------------------ *)

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

(* Counting nodes switch from subset expansion to the wide encoding (a
   ladder or one constraint) once the number of subsets passes this
   (subsets are slightly better for the solver on small nodes, and keep
   small-instance clause counts stable). *)
let subset_limit = 64

(* Evaluate a compiled formula to a ground circuit. [slots] is the
   preallocated assignment array (slot -> domain position), mutated in
   place by quantifier loops — no environment allocation per binding.
   Wide counting nodes and the first evaluation of a shared node under
   a binding reify their definitions inline (the only emission during
   evaluation); everything else touches no shared state until the
   Tseitin clauses are emitted. A budget trip mid-evaluation abandons
   the assertion with its memo: at worst it leaves a definition
   fragment over an auxiliary nothing references, which constrains no
   fact. *)
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
        (* Wide counting node: reify the body at each position and
           count the reified bodies, with a sequential-counter ladder or
           one constraint record, instead of enumerating subsets.
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
          let l =
            match t.encoding with
            | `Engine ->
                let l = fresh_aux t in
                emit_atleast t k l !lits !nlits;
                l
            | `Reference -> (
                match atleast_lit t k !lits with
                | 0 -> assert false (* k <= |lits| leaves a real ladder node *)
                | l -> l)
          in
          GLit (if sign then l else -l)
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
  | CShared { free; node; memo } ->
      let radix = Array.length t.domain in
      let key = ref 0 in
      for i = Array.length free - 1 downto 0 do
        key := (!key * radix) + slots.(free.(i))
      done;
      let shared =
        match Hashtbl.find_opt memo !key with
        | Some shared -> shared
        | None ->
            let shared =
              match eval t slots true node with
              | (GTrue | GFalse | GLit _) as c -> c
              | c -> GLit (lit_of t c)
            in
            Hashtbl.add memo !key shared;
            shared
      in
      (match shared with
      | GLit l -> GLit (if sign then l else -l)
      | GTrue -> if sign then GTrue else GFalse
      | _ -> if sign then GFalse else GTrue)

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
(* Assertions                                                           *)
(* ------------------------------------------------------------------ *)

let assert_formula ?(env = SMap.empty) t f =
  let cf, nslots = compile t env f in
  let slots = Array.make (max nslots 1) 0 in
  assert_g t (eval t slots true cf)

let assert_negation ?(env = SMap.empty) t f =
  let cf, nslots = compile t env f in
  let slots = Array.make (max nslots 1) 0 in
  assert_g t (eval t slots false cf)

(* A literal equivalent to [f] under [env] (full Tseitin equivalence),
   for projected model enumeration. *)
let reify ?(env = SMap.empty) t f =
  let cf, nslots = compile t env f in
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
  | g -> lit_of t g

let assert_fact t f = emit_clause1 t (fact_var t f)
let assert_instance t inst = Structure.Instance.iter_facts (assert_fact t) inst

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

(* The nulls model [m] makes active: a prefix n_1..n_k (none without
   activity). *)
let active_nulls t model =
  let k = ref 0 in
  while
    t.first_null + !k < Array.length t.domain && model.(activity t (!k + 1) - 1)
  do
    incr k
  done;
  !k

(* [base] plus what [model] adds to it: the active nulls and every true
   fact whose variable [known] does not claim. Only active elements
   carry true facts (see [activity_clauses]), and [active] itself is
   not a relation of the model. *)
let extend_model t model ~known base =
  let live = t.first_null + active_nulls t model in
  let inst = ref base in
  for p = 0 to live - 1 do
    inst := Structure.Instance.add_element t.domain.(p) !inst
  done;
  let radix = Array.length t.domain in
  let rec decode rank arity acc =
    if arity = 0 then List.rev acc
    else decode (rank / radix) (arity - 1) (t.domain.(rank mod radix) :: acc)
  in
  List.iter
    (fun (rel, info) ->
      if rel <> active then
        for rank = 0 to info.count - 1 do
          let v = info.base + rank in
          if model.(v - 1) && not (known v) then
            inst :=
              Structure.Instance.add_fact
                (Structure.Instance.fact rel (decode rank info.arity []))
                !inst
        done)
    (List.rev t.rels_rev);
  !inst

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
