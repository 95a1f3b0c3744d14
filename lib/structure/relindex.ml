(* Per-relation argument indexes over dense element ids.

   An index is an immutable-by-construction snapshot of one instance:
   elements are interned into dense ids (in [Element.compare] order, so
   everything downstream is deterministic), and each relation's tuples
   live in one flat [int array] in fact-set order. Access patterns
   (hexastore-style: a bitmask of bound argument positions) get their
   hash table lazily — a pattern is scanned linearly until it has been
   probed often enough on a large enough relation to pay for a build. *)

(* A relation stays scan-only below this many tuples. *)
let scan_cutoff = 32

(* Probes of one (relation, mask) pattern before its hash table is built. *)
let probe_cutoff = 2

type pattern = {
  mutable probes : int;
  mutable table : (int array, int list) Hashtbl.t option;
      (* key = bound values in position order; value = ascending row offsets *)
}

type rel = {
  arity : int;
  ntuples : int;
  rows : int array;  (* ntuples * arity dense ids, in fact-set order *)
  distinct : int array;  (* per-position distinct-value counts *)
  patterns : (int, pattern) Hashtbl.t;  (* bound-position mask -> state *)
}

type t = {
  elems : Element.t array;  (* dense id -> element, in Element.compare order *)
  ids : int Element.Tbl.t;
  rels : (string, rel) Hashtbl.t;
  mutable tables_built : int;
}

let tables_built t = t.tables_built

let build inst =
  let elems = Array.of_list (Instance.domain_list inst) in
  let n = Array.length elems in
  let ids = Element.Tbl.create (max 16 n) in
  Array.iteri (fun i e -> Element.Tbl.replace ids e i) elems;
  (* Group argument tuples per relation, preserving fact-set order. *)
  let groups : (string, Element.t list list ref) Hashtbl.t =
    Hashtbl.create 16
  in
  Instance.iter_facts
    (fun f ->
      match Hashtbl.find_opt groups f.Instance.rel with
      | Some l -> l := f.Instance.args :: !l
      | None -> Hashtbl.add groups f.Instance.rel (ref [ f.Instance.args ]))
    inst;
  let rels = Hashtbl.create (Hashtbl.length groups) in
  let seen = Array.make (max 1 n) 0 in
  let stamp = ref 0 in
  Hashtbl.iter
    (fun rname tuples ->
      let tuples = !tuples in
      let ntuples = List.length tuples in
      let arity =
        match tuples with args :: _ -> List.length args | [] -> 0
      in
      let rows = Array.make (max 1 (ntuples * arity)) (-1) in
      (* [tuples] is in reverse fact-set order; fill from the back. *)
      let row = ref (ntuples - 1) in
      List.iter
        (fun args ->
          let base = !row * arity in
          List.iteri
            (fun p e -> rows.((base + p)) <- Element.Tbl.find ids e)
            args;
          decr row)
        tuples;
      let distinct = Array.make (max 1 arity) 0 in
      for p = 0 to arity - 1 do
        incr stamp;
        let count = ref 0 in
        for r = 0 to ntuples - 1 do
          let id = rows.((r * arity) + p) in
          if seen.(id) <> !stamp then begin
            seen.(id) <- !stamp;
            incr count
          end
        done;
        distinct.(p) <- !count
      done;
      Hashtbl.replace rels rname
        { arity; ntuples; rows; distinct; patterns = Hashtbl.create 4 })
    groups;
  { elems; ids; rels; tables_built = 0 }

(* Bounded per-domain cache keyed by [Instance.uid] (globally unique, so
   there is no cross-domain aliasing even though each domain caches
   independently — worker domains share nothing). *)
let cache_capacity = 8

let cache_key : (int, t) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create cache_capacity)

let of_instance inst =
  let cache = Domain.DLS.get cache_key in
  let uid = Instance.uid inst in
  match Hashtbl.find_opt cache uid with
  | Some idx -> idx
  | None ->
      let idx = build inst in
      if Hashtbl.length cache >= cache_capacity then Hashtbl.reset cache;
      Hashtbl.add cache uid idx;
      idx

let cached inst =
  Hashtbl.find_opt (Domain.DLS.get cache_key) (Instance.uid inst)

(* id of an element, or -2 when it does not occur in the instance (no
   row can ever match -2: all row entries are >= 0). *)
let id_of t e =
  match Element.Tbl.find_opt t.ids e with Some i -> i | None -> -2

let elem_of t i = t.elems.(i)
let cardinality t r =
  match Hashtbl.find_opt t.rels r with Some ri -> ri.ntuples | None -> 0

let distinct_at t r p =
  match Hashtbl.find_opt t.rels r with
  | Some ri when p < Array.length ri.distinct -> ri.distinct.(p)
  | _ -> 0

let key_of_pat ~arity ~mask pat =
  let k = Array.make (max 1 arity) 0 in
  let j = ref 0 in
  for p = 0 to arity - 1 do
    if mask land (1 lsl p) <> 0 then begin
      k.(!j) <- pat.(p);
      incr j
    end
  done;
  Array.sub k 0 !j

let scan ri ~mask ~pat f =
  let arity = ri.arity in
  for r = 0 to ri.ntuples - 1 do
    let base = r * arity in
    let ok = ref true in
    for p = 0 to arity - 1 do
      if !ok && mask land (1 lsl p) <> 0 && ri.rows.(base + p) <> pat.(p)
      then ok := false
    done;
    if !ok then f ri.rows base
  done

let build_table t ri ~mask =
  let arity = ri.arity in
  let tbl = Hashtbl.create (max 16 ri.ntuples) in
  (* Walk rows backwards so each bucket list ends up in ascending row
     order — lookups then iterate in the same order a scan would. *)
  for r = ri.ntuples - 1 downto 0 do
    let base = r * arity in
    let k = Array.make (max 1 arity) 0 in
    let j = ref 0 in
    for p = 0 to arity - 1 do
      if mask land (1 lsl p) <> 0 then begin
        k.(!j) <- ri.rows.(base + p);
        incr j
      end
    done;
    let key = Array.sub k 0 !j in
    let cur = Option.value (Hashtbl.find_opt tbl key) ~default:[] in
    Hashtbl.replace tbl key (base :: cur)
  done;
  t.tables_built <- t.tables_built + 1;
  tbl

(* [iter_matches t r ~pat f] calls [f rows base] for every tuple of [r]
   matching [pat] (entries >= 0 are required values, -1 positions are
   free), in ascending row order. [pat] entries of -2 (bound to an
   element absent from the instance) match nothing. Exceptions raised by
   [f] propagate, which is how callers stop early. *)
let iter_matches t r ~pat f =
  match Hashtbl.find_opt t.rels r with
  | None -> ()
  | Some ri ->
      let arity = ri.arity in
      let mask = ref 0 in
      let impossible = ref false in
      for p = 0 to arity - 1 do
        if pat.(p) = -2 then impossible := true
        else if pat.(p) >= 0 then mask := !mask lor (1 lsl p)
      done;
      if !impossible then ()
      else
        let mask = !mask in
        if mask = 0 || ri.ntuples <= scan_cutoff then scan ri ~mask ~pat f
        else begin
          let state =
            match Hashtbl.find_opt ri.patterns mask with
            | Some s -> s
            | None ->
                let s = { probes = 0; table = None } in
                Hashtbl.add ri.patterns mask s;
                s
          in
          state.probes <- state.probes + 1;
          if state.table = None && state.probes > probe_cutoff then
            state.table <- Some (build_table t ri ~mask);
          match state.table with
          | Some tbl -> (
              match Hashtbl.find_opt tbl (key_of_pat ~arity ~mask pat) with
              | Some bases -> List.iter (fun base -> f ri.rows base) bases
              | None -> ())
          | None -> scan ri ~mask ~pat f
        end
