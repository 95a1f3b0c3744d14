module F = Logic.Formula
module SMap = Logic.Names.SMap
module SSet = Logic.Names.SSet
module ESet = Structure.Element.Set

(* The Theorem 5 procedure for binary signatures: assign to each
   maximally guarded tuple of the instance the set of realizable types
   over cl(O, q), prune types that have no compatible neighbour type,
   and answer from the surviving sets. This computes the semantics of
   the paper's Datalog≠ program Π (whose predicates P_Θ range over sets
   of types); the fixpoint here is the set of facts Π derives.

   Types are enumerated as projections of bounded models of O onto the
   reified closure formulas, so the procedure is exact relative to the
   witness-domain bound (the paper's types are realizable in arbitrary
   models). It characterises certain answers for unravelling-tolerant
   ontologies; on others (e.g. Example 6) it computes the unravelling
   side of Definition 3, which the tests exploit. *)

(* ------------------------------------------------------------------ *)
(* Closure                                                              *)
(* ------------------------------------------------------------------ *)

type fv_class = FX | FY | FXY

type entry = {
  formula : F.t;
  fv : fv_class;
  mutable swap : int;  (** index of the x↔y swapped entry *)
}

type closure = {
  entries : entry array;
  ontology : Logic.Ontology.t;
  query : Query.Cq.t;
  q_x : int;  (** index of q at x (unary q) or q(x,y) (binary q) *)
}

exception Not_two_variable of string
exception Too_many_types of int

let swap_formula f =
  Logic.Subst.apply
    (Logic.Subst.of_list
       [ ("x", Logic.Term.Var "y"); ("y", Logic.Term.Var "x") ])
    f

let fv_class_of f =
  let fv = F.free_vars f in
  if SSet.equal fv (SSet.singleton "x") then Some FX
  else if SSet.equal fv (SSet.singleton "y") then Some FY
  else if SSet.equal fv (SSet.of_list [ "x"; "y" ]) then Some FXY
  else None

(* The query as a formula with free variables x (and y). *)
let query_formula (q : Query.Cq.t) =
  let renaming =
    match q.Query.Cq.answer with
    | [ a ] -> [ (a, "x") ]
    | [ a; b ] -> [ (a, "x"); (b, "y") ]
    | _ ->
        raise
          (Not_two_variable "Typeprog supports queries of arity 1 or 2")
  in
  (* rename answer variables to x/y and existential variables apart *)
  let q' =
    Query.Cq.rename_vars "e_" q
  in
  let subst =
    Logic.Subst.of_list
      (List.map (fun (a, v) -> ("e_" ^ a, Logic.Term.Var v)) renaming)
  in
  Logic.Subst.apply subst (Query.Cq.to_formula q')

let closure o (q : Query.Cq.t) =
  let table = Hashtbl.create 64 in
  let entries = ref [] in
  let count = ref 0 in
  let add f fv =
    if not (Hashtbl.mem table f) then begin
      Hashtbl.replace table f !count;
      incr count;
      entries := { formula = f; fv; swap = -1 } :: !entries
    end;
    Hashtbl.find table f
  in
  let add_with_swap f =
    match fv_class_of f with
    | None -> ()
    | Some fv ->
        let g = swap_formula f in
        let gfv = match fv with FX -> FY | FY -> FX | FXY -> FXY in
        ignore (add f fv);
        ignore (add g gfv)
  in
  (* subformulas of the ontology *)
  List.iter
    (fun s -> List.iter add_with_swap (F.subformulas s))
    (Logic.Ontology.sentences o);
  (* atomic formulas over the joint signature *)
  let signature =
    Logic.Signature.union (Logic.Ontology.signature o) (Query.Cq.signature q)
  in
  List.iter
    (fun (r, arity) ->
      match arity with
      | 1 ->
          add_with_swap (F.atom r [ Logic.Term.Var "x" ])
      | 2 ->
          add_with_swap (F.atom r [ Logic.Term.Var "x"; Logic.Term.Var "y" ]);
          add_with_swap (F.atom r [ Logic.Term.Var "x"; Logic.Term.Var "x" ])
      | _ -> raise (Not_two_variable ("relation " ^ r ^ " has arity > 2")))
    (Logic.Signature.to_list signature);
  (* equality and the query *)
  add_with_swap (F.Eq (Logic.Term.Var "x", Logic.Term.Var "y"));
  let qf = query_formula q in
  add_with_swap qf;
  let arr = Array.of_list (List.rev !entries) in
  (* resolve swap indices *)
  Array.iteri
    (fun i e ->
      let g = swap_formula e.formula in
      match Hashtbl.find_opt table g with
      | Some j -> arr.(i).swap <- j
      | None -> arr.(i).swap <- i)
    arr;
  let q_x = Hashtbl.find table qf in
  { entries = arr; ontology = o; query = q; q_x }

let size c = Array.length c.entries

(* ------------------------------------------------------------------ *)
(* Type enumeration                                                     *)
(* ------------------------------------------------------------------ *)

type ty = bool array

type types = {
  cl : closure;
  binary : ty list;  (** types of pairs of distinct elements *)
  unary : ty list;  (** types over the FX entries only (singletons) *)
  x_entries : int array;  (** indices of FX entries, in order *)
}

let ea = Structure.Element.Const "ta"
let eb = Structure.Element.Const "tb"

let enumerate_types ?budget ?(extra = 2) ?(limit = 32768) cl =
  let o = cl.ontology in
  let signature =
    Logic.Signature.union (Logic.Ontology.signature o)
      (Query.Cq.signature cl.query)
  in
  let base k elems =
    let nulls = List.init k (fun i -> Structure.Element.Null (1000 + i)) in
    let g =
      Reasoner.Ground.create ?budget ~domain:(elems @ nulls) ~signature ()
    in
    List.iter (Reasoner.Ground.assert_formula g) (Logic.Ontology.all_sentences o);
    g
  in
  (* Ask for one type past the limit: getting it means the enumeration
     would be truncated, which is a failure, not a smaller answer. *)
  let projections g lits =
    let cap = if limit = max_int then limit else limit + 1 in
    let found = Reasoner.Ground.enumerate_projections ~limit:cap g lits in
    if List.compare_length_with found limit > 0 then
      raise (Too_many_types limit);
    List.map Array.of_list found
  in
  (* binary types *)
  let g2 = base extra [ ea; eb ] in
  let env2 = SMap.of_seq (List.to_seq [ ("x", ea); ("y", eb) ]) in
  let lits2 =
    Array.to_list
      (Array.map (fun e -> Reasoner.Ground.reify ~env:env2 g2 e.formula) cl.entries)
  in
  let binary = projections g2 lits2 in
  (* unary types over FX entries *)
  let x_entries =
    Array.of_list
      (List.filter_map
         (fun (i, e) -> if e.fv = FX then Some i else None)
         (Array.to_list (Array.mapi (fun i e -> (i, e)) cl.entries)))
  in
  let g1 = base extra [ ea ] in
  let env1 = SMap.singleton "x" ea in
  let lits1 =
    Array.to_list
      (Array.map
         (fun i -> Reasoner.Ground.reify ~env:env1 g1 cl.entries.(i).formula)
         x_entries)
  in
  let unary = projections g1 lits1 in
  { cl; binary; unary; x_entries }

(* Projection of a binary type onto x / y, as an array over FX entries. *)
let proj_x t (theta : ty) = Array.map (fun i -> theta.(i)) t.x_entries

let proj_y t (theta : ty) =
  Array.map (fun i -> theta.(t.cl.entries.(i).swap)) t.x_entries

(* ------------------------------------------------------------------ *)
(* The pruning fixpoint on an instance                                  *)
(* ------------------------------------------------------------------ *)

type tuple =
  | Pair of Structure.Element.t * Structure.Element.t  (** canonical order *)
  | Single of Structure.Element.t

let tuples_of_instance d =
  let pairs = Hashtbl.create 16 in
  List.iter
    (fun (f : Structure.Instance.fact) ->
      match f.args with
      | [ u; v ] when not (Structure.Element.equal u v) ->
          let key = if Structure.Element.compare u v <= 0 then (u, v) else (v, u) in
          Hashtbl.replace pairs key ()
      | _ -> ())
    (Structure.Instance.facts d);
  let paired =
    Hashtbl.fold
      (fun (u, v) () acc -> ESet.add u (ESet.add v acc))
      pairs ESet.empty
  in
  let singles =
    ESet.elements (ESet.diff (Structure.Instance.domain d) paired)
  in
  Hashtbl.fold (fun (u, v) () acc -> Pair (u, v) :: acc) pairs []
  @ List.map (fun a -> Single a) singles

(* Which entries must be true given the facts of D on the tuple. *)
let forced_entries cl d = function
  | Pair (u, v) ->
      let env = function "x" -> u | _ -> v in
      Array.to_list
        (Array.mapi
           (fun i (e : entry) ->
             match e.formula with
             | F.Atom (r, ts) ->
                 let args =
                   List.map
                     (function
                       | Logic.Term.Var w -> env w
                       | Logic.Term.Const c -> Structure.Element.Const c)
                     ts
                 in
                 if Structure.Instance.mem (Structure.Instance.fact r args) d
                 then Some (i, true)
                 else None
             | F.Eq (Logic.Term.Var w1, Logic.Term.Var w2) ->
                 (* equalities are decided by the tuple itself *)
                 Some (i, Structure.Element.equal (env w1) (env w2))
             | _ -> None)
           cl.entries)
      |> List.filter_map Fun.id
  | Single a ->
      Array.to_list
        (Array.mapi
           (fun i (e : entry) ->
             if e.fv <> FX then None
             else
               match e.formula with
               | F.Atom (r, ts) ->
                   let args =
                     List.map
                       (function
                         | Logic.Term.Var _ -> a
                         | Logic.Term.Const c -> Structure.Element.Const c)
                       ts
                   in
                   if Structure.Instance.mem (Structure.Instance.fact r args) d
                   then Some (i, true)
                   else None
               | _ -> None)
           cl.entries)
      |> List.filter_map Fun.id

let initial_types t d tuple =
  let forced = forced_entries t.cl d tuple in
  match tuple with
  | Pair _ ->
      List.filter
        (fun (theta : ty) ->
          List.for_all (fun (i, b) -> theta.(i) = b) forced)
        t.binary
  | Single _ ->
      let x_pos = Hashtbl.create 16 in
      Array.iteri (fun k i -> Hashtbl.replace x_pos i k) t.x_entries;
      List.filter
        (fun (theta : ty) ->
          List.for_all
            (fun (i, b) ->
              match Hashtbl.find_opt x_pos i with
              | Some k -> theta.(k) = b
              | None -> true)
            forced)
        t.unary

(* The unary projections of a tuple's type at a given element. *)
let projections_at t tuple (theta : ty) el =
  match tuple with
  | Single _ -> [ theta ]
  | Pair (u, v) ->
      (if Structure.Element.equal el u then [ proj_x t theta ] else [])
      @ if Structure.Element.equal el v then [ proj_y t theta ] else []

type state = {
  t : types;
  tuples : tuple array;
  mutable sets : ty list array;  (** surviving types per tuple *)
}

let tuple_elements = function
  | Pair (u, v) -> [ u; v ]
  | Single a -> [ a ]

let prune ?(budget = Reasoner.Budget.unlimited) state =
  let n = Array.length state.tuples in
  (* index: element -> tuple indices *)
  let by_elem = Hashtbl.create 16 in
  Array.iteri
    (fun i tu ->
      List.iter
        (fun el ->
          Hashtbl.replace by_elem el
            (i :: Option.value (Hashtbl.find_opt by_elem el) ~default:[]))
        (tuple_elements tu))
    state.tuples;
  (* hashed sets of available unary projections, per (tuple, element) *)
  let projection_set i el =
    let set = Hashtbl.create 64 in
    List.iter
      (fun theta ->
        List.iter
          (fun p -> Hashtbl.replace set p ())
          (projections_at state.t state.tuples.(i) theta el))
      state.sets.(i);
    set
  in
  let changed = ref true in
  while !changed do
    (* one checkpoint per pruning pass: between passes every surviving
       set is a sound over-approximation, so a trip here is clean *)
    Reasoner.Budget.checkpoint budget;
    changed := false;
    let proj_sets = Hashtbl.create 16 in
    Array.iteri
      (fun i tu ->
        List.iter
          (fun el -> Hashtbl.replace proj_sets (i, el) (projection_set i el))
          (tuple_elements tu))
      state.tuples;
    for i = 0 to n - 1 do
      let tu = state.tuples.(i) in
      let keep theta =
        List.for_all
          (fun el ->
            let neighbours =
              List.filter (fun j -> j <> i)
                (Option.value (Hashtbl.find_opt by_elem el) ~default:[])
            in
            List.for_all
              (fun j ->
                let there = Hashtbl.find proj_sets (j, el) in
                List.exists
                  (fun p -> Hashtbl.mem there p)
                  (projections_at state.t tu theta el))
              neighbours)
          (tuple_elements tu)
      in
      let survivors = List.filter keep state.sets.(i) in
      if List.length survivors <> List.length state.sets.(i) then begin
        state.sets.(i) <- survivors;
        changed := true
      end
    done
  done

(* ------------------------------------------------------------------ *)
(* Entailment                                                           *)
(* ------------------------------------------------------------------ *)

let run ?budget ?extra ?limit o q d =
  Obs.Trace.with_span "typeprog.run" @@ fun () ->
  let cl = Obs.Trace.with_span "typeprog.closure" (fun () -> closure o q) in
  let t =
    Obs.Trace.with_span "typeprog.enumerate_types" (fun () ->
        enumerate_types ?budget ?extra ?limit cl)
  in
  let tuples = Array.of_list (tuples_of_instance d) in
  let state =
    { t; tuples; sets = Array.map (initial_types t d) tuples }
  in
  Obs.Trace.with_span "typeprog.prune" (fun () -> prune ?budget state);
  if Obs.Trace.enabled () then begin
    Obs.Trace.add_attr "closure_size" (Obs.Trace.Int (size cl));
    Obs.Trace.add_attr "binary_types" (Obs.Trace.Int (List.length t.binary));
    Obs.Trace.add_attr "tuples" (Obs.Trace.Int (Array.length tuples))
  end;
  state

(* Does every surviving type of the tuple contain the query at the
   answer position? *)
let tuple_answers state tuple_idx answer =
  let t = state.t in
  let q_idx = t.cl.q_x in
  let x_pos = Hashtbl.create 16 in
  Array.iteri (fun k i -> Hashtbl.replace x_pos i k) t.x_entries;
  match (state.tuples.(tuple_idx), answer) with
  | Single a, [ a' ] when Structure.Element.equal a a' -> (
      match Hashtbl.find_opt x_pos q_idx with
      | Some k ->
          state.sets.(tuple_idx) <> []
          && List.for_all (fun (theta : ty) -> theta.(k)) state.sets.(tuple_idx)
      | None -> false)
  | Pair (u, v), [ a' ] ->
      let idx =
        if Structure.Element.equal u a' then Some q_idx
        else if Structure.Element.equal v a' then Some t.cl.entries.(q_idx).swap
        else None
      in
      (match idx with
      | Some i ->
          state.sets.(tuple_idx) <> []
          && List.for_all (fun (theta : ty) -> theta.(i)) state.sets.(tuple_idx)
      | None -> false)
  | Pair (u, v), [ a'; b' ] ->
      let idx =
        if Structure.Element.equal u a' && Structure.Element.equal v b' then
          Some q_idx
        else if Structure.Element.equal u b' && Structure.Element.equal v a'
        then Some state.t.cl.entries.(q_idx).swap
        else None
      in
      (match idx with
      | Some i ->
          state.sets.(tuple_idx) <> []
          && List.for_all (fun (theta : ty) -> theta.(i)) state.sets.(tuple_idx)
      | None -> false)
  | _ -> false

(* The evaluation: inconsistency (an empty surviving set) answers
   everything; otherwise some tuple covering ā must answer. *)
let entails ?budget ?extra ?limit o q d answer =
  let state = run ?budget ?extra ?limit o q d in
  Array.exists (fun s -> s = []) state.sets
  || Array.exists
       (fun i -> tuple_answers state i answer)
       (Array.init (Array.length state.tuples) (fun i -> i))

(* Survivor statistics, for inspection and benchmarks. *)
let statistics state =
  ( Array.length state.tuples,
    Array.fold_left (fun acc s -> acc + List.length s) 0 state.sets )

