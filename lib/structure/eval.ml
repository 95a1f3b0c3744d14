(* Selectivity-ordered join evaluation over [Relindex].

   A conjunctive body is a list of atoms over integer variables and
   constant elements. The planner greedily orders atoms: cheapest
   estimated row count first (relation cardinality divided by the
   distinct counts of the bound positions), ties broken by fewest
   unbound variables, then smallest relation, then original atom index —
   a pure function of the atoms and the index statistics, so plans are
   deterministic. Execution is a depth-first join over the ordered
   atoms; each atom's bound positions form an access pattern served by
   [Relindex] (adaptive linear scan → hash lookup). *)

module SMap = Logic.Names.SMap
module SSet = Logic.Names.SSet

type term = Const of Element.t | Var of int
type atom = { rel : string; args : term array }

let atom rel args = { rel; args = Array.of_list args }

type access = Membership | Lookup | Scan

let access_label = function
  | Membership -> "membership"
  | Lookup -> "lookup"
  | Scan -> "scan"

type step = {
  atom_ix : int;
  mask : int;  (* positions bound at entry (constants or bound vars) *)
  est : float;  (* estimated matching rows *)
  access : access;
  rel_size : int;
}

type plan = { atoms : atom array; order : step list; nvars : int }

let nvars_of ~bound atoms =
  let m = ref (-1) in
  List.iter (fun v -> if v > !m then m := v) bound;
  List.iter
    (fun a ->
      Array.iter (function Var v when v > !m -> m := v | _ -> ()) a.args)
    atoms;
  !m + 1

let pp_term ppf = function
  | Const e -> Element.pp ppf e
  | Var v -> Fmt.pf ppf "?%d" v

(* No break hints: the rendering is embedded in single-line JSON. *)
let pp_atom ppf a =
  Fmt.pf ppf "%s(%a)" a.rel Fmt.(array ~sep:(any ",") pp_term) a.args

(* Estimated rows + access for [a] given the currently bound vars. *)
let estimate idx boundv a =
  let card = Relindex.cardinality idx a.rel in
  let arity = Array.length a.args in
  let mask = ref 0 in
  let unbound = ref 0 in
  let seen_unbound = Hashtbl.create 4 in
  Array.iteri
    (fun p t ->
      match t with
      | Const _ -> mask := !mask lor (1 lsl p)
      | Var v ->
          if v < Array.length boundv && boundv.(v) then
            mask := !mask lor (1 lsl p)
          else if not (Hashtbl.mem seen_unbound v) then begin
            Hashtbl.add seen_unbound v ();
            incr unbound
          end)
    a.args;
  let est =
    if card = 0 then 0.0
    else begin
      let e = ref (float_of_int card) in
      for p = 0 to arity - 1 do
        if !mask land (1 lsl p) <> 0 then
          e := !e /. float_of_int (max 1 (Relindex.distinct_at idx a.rel p))
      done;
      !e
    end
  in
  let access =
    if arity > 0 && !mask = (1 lsl arity) - 1 then Membership
    else if !mask = 0 then Scan
    else Lookup
  in
  (est, !mask, !unbound, access, card)

(* Spans are emitted once per distinct body shape per domain — plan
   construction sits inside per-tuple hot loops, so unconditional spans
   would flood the collector. *)
let span_seen_key : (string, unit) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 64)

let emit_plan_span plan =
  let fp =
    Fmt.str "%a|%a"
      Fmt.(array ~sep:semi pp_atom)
      plan.atoms
      Fmt.(list ~sep:comma (using (fun s -> s.atom_ix) int))
      plan.order
  in
  let seen = Domain.DLS.get span_seen_key in
  if not (Hashtbl.mem seen fp) then begin
    if Hashtbl.length seen >= 512 then Hashtbl.reset seen;
    Hashtbl.add seen fp ();
    let order =
      String.concat ","
        (List.map (fun s -> string_of_int s.atom_ix) plan.order)
    in
    let accesses =
      String.concat ","
        (List.map (fun s -> access_label s.access) plan.order)
    in
    let est = List.fold_left (fun acc s -> acc +. s.est) 0.0 plan.order in
    Obs.Trace.with_span "eval.plan"
      ~attrs:
        [
          ("atoms", Obs.Trace.Int (Array.length plan.atoms));
          ("nvars", Obs.Trace.Int plan.nvars);
          ("order", Obs.Trace.Str order);
          ("access", Obs.Trace.Str accesses);
          ("est_rows", Obs.Trace.Float est);
        ]
      (fun () -> ())
  end

let make_plan idx ?(bound = []) atoms =
  let nvars = nvars_of ~bound atoms in
  let atoms_a = Array.of_list atoms in
  let boundv = Array.make (max 1 nvars) false in
  List.iter (fun v -> boundv.(v) <- true) bound;
  let remaining = ref (List.init (Array.length atoms_a) Fun.id) in
  let order = ref [] in
  while !remaining <> [] do
    let best = ref None in
    List.iter
      (fun ix ->
        let est, mask, unbound, access, card =
          estimate idx boundv atoms_a.(ix)
        in
        let key = (est, unbound, card, ix) in
        let better =
          match !best with
          | None -> true
          | Some (k, _, _, _, _) -> compare key k < 0
        in
        if better then best := Some (key, ix, mask, est, (access, card)))
      !remaining;
    match !best with
    | None -> ()
    | Some (_, ix, mask, est, (access, card)) ->
        order :=
          { atom_ix = ix; mask; est; access; rel_size = card } :: !order;
        remaining := List.filter (fun j -> j <> ix) !remaining;
        Array.iter
          (function Var v -> boundv.(v) <- true | Const _ -> ())
          atoms_a.(ix).args
  done;
  let plan = { atoms = atoms_a; order = List.rev !order; nvars } in
  if Obs.Trace.enabled () then emit_plan_span plan;
  plan

let explain_json plan =
  let int = string_of_int in
  let step_json s =
    let a = plan.atoms.(s.atom_ix) in
    let bound =
      List.filter
        (fun p -> s.mask land (1 lsl p) <> 0)
        (List.init (Array.length a.args) Fun.id)
    in
    Obs.Json.obj
      [
        ("atom", int s.atom_ix);
        ("body", Obs.Json.escape (Fmt.str "%a" pp_atom a));
        ("rel", Obs.Json.escape a.rel);
        ("access", Obs.Json.escape (access_label s.access));
        ("bound", Obs.Json.arr (List.map int bound));
        ("est_rows", Printf.sprintf "%g" s.est);
        ("rel_size", int s.rel_size);
      ]
  in
  Obs.Json.obj
    [
      ("nvars", int plan.nvars);
      ("atoms", int (Array.length plan.atoms));
      ("order", Obs.Json.arr (List.map step_json plan.order));
    ]

exception Stop

(* [fold idx plan ~bindings f init] enumerates all assignments of the
   plan's variables satisfying every atom, depth-first in plan order.
   [bindings] pre-binds variables (e.g. answer tuples, chase-delta
   pins); every variable in [0, nvars) must occur in some atom or in
   [bindings] — isolated variables are the caller's business. [f]
   receives the full assignment as an array indexed by variable and the
   accumulator, and returns [(stop, acc)]. Enumeration order is a pure
   function of the plan and the index, hence deterministic. *)
let fold idx plan ~bindings f init =
  let nvars = plan.nvars in
  let ba = Array.make (max 1 nvars) (-1) in
  let init_elem = Array.make (max 1 nvars) None in
  List.iter
    (fun (v, e) ->
      ba.(v) <- Relindex.id_of idx e;
      init_elem.(v) <- Some e)
    bindings;
  let steps = Array.of_list plan.order in
  let nsteps = Array.length steps in
  let acc = ref init in
  let sol = Array.make (max 1 nvars) (Element.Null min_int) in
  let rec go k =
    if k = nsteps then begin
      for v = 0 to nvars - 1 do
        sol.(v) <-
          (if ba.(v) >= 0 then Relindex.elem_of idx ba.(v)
           else
             match init_elem.(v) with
             | Some e -> e
             | None -> Element.Null min_int)
      done;
      let stop, acc' = f sol !acc in
      acc := acc';
      if stop then raise_notrace Stop
    end
    else begin
      let st = steps.(k) in
      let a = plan.atoms.(st.atom_ix) in
      let arity = Array.length a.args in
      let pat = Array.make (max 1 arity) (-1) in
      let impossible = ref false in
      for p = 0 to arity - 1 do
        match a.args.(p) with
        | Const e ->
            let id = Relindex.id_of idx e in
            if id < 0 then impossible := true else pat.(p) <- id
        | Var v ->
            if ba.(v) = -2 then impossible := true
            else if ba.(v) >= 0 then pat.(p) <- ba.(v)
      done;
      if not !impossible then
        Relindex.iter_matches idx a.rel ~pat (fun rows base ->
            let touched = ref [] in
            let ok = ref true in
            for p = 0 to arity - 1 do
              if !ok then
                match a.args.(p) with
                | Var v ->
                    let id = rows.(base + p) in
                    if ba.(v) < 0 then begin
                      ba.(v) <- id;
                      touched := v :: !touched
                    end
                    else if ba.(v) <> id then ok := false
                | Const _ -> ()
            done;
            if !ok then go (k + 1);
            List.iter (fun v -> ba.(v) <- -1) !touched)
    end
  in
  (try go 0 with Stop -> ());
  !acc

(* Named-variable bodies: the one place where rule and query bodies —
   [(rel, terms)] atoms over named variables and constants — become
   planner atoms. Variables are numbered in sorted-name order, so a
   body's numbering depends only on its variable names. *)
type body = { var_ix : int SMap.t; body_atoms : atom list }

let compile atoms =
  let vars =
    List.fold_left
      (fun acc (_, ts) -> SSet.union acc (Logic.Term.vars ts))
      SSet.empty atoms
  in
  let _, var_ix =
    SSet.fold (fun v (i, m) -> (i + 1, SMap.add v i m)) vars (0, SMap.empty)
  in
  let term = function
    | Logic.Term.Var v -> Var (SMap.find v var_ix)
    | Logic.Term.Const c -> Const (Element.Const c)
  in
  {
    var_ix;
    body_atoms = List.map (fun (r, ts) -> atom r (List.map term ts)) atoms;
  }

let fold_body inst ?(bound = []) body f init =
  let idx = Relindex.of_instance inst in
  let bindings = List.map (fun (x, e) -> (SMap.find x body.var_ix, e)) bound in
  let plan = make_plan idx ~bound:(List.map fst bindings) body.body_atoms in
  fold idx plan ~bindings f init
