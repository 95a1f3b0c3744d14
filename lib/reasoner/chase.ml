module SMap = Logic.Names.SMap
module SSet = Logic.Names.SSet
module Eval = Structure.Eval
module Instance = Structure.Instance
module Element = Structure.Element

(* The restricted chase for existential rules (TGDs), Datalog≠ rules
   and equality generating dependencies (EGDs), in semi-naive rounds.
   Complete for certain answers w.r.t. Horn ontologies: the chase
   result is a universal model. *)

type rule = {
  atoms : Query.Cq.atom list;  (** the body, pinned to delta facts *)
  body : Eval.body;
  neq : (Eval.term * Eval.term) list;  (** over [body.var_ix] *)
  frontier : string list;  (** head variables the body binds, sorted *)
  frontier_ix : int list;  (** their indices in [body.var_ix] *)
  head : Eval.body;
  head_frontier : int list;  (** the frontier's indices in [head.var_ix] *)
  existential : int list;  (** the other head variables' indices *)
}

type egd = {
  ename : string;
  eatoms : Query.Cq.atom list;
  ebody : Eval.body;
  left : int;
  right : int;
}

let vars atoms =
  List.fold_left
    (fun acc (_, ts) -> SSet.union acc (Logic.Term.vars ts))
    SSet.empty atoms

let rule ?(name = "r") ?(neq = []) ~body ~head () =
  let compiled = Eval.compile body and hbody = Eval.compile head in
  let term = function
    | Logic.Term.Const c -> Eval.Const (Element.Const c)
    | Logic.Term.Var v -> (
        match SMap.find_opt v compiled.var_ix with
        | Some i -> Eval.Var i
        | None -> invalid_arg (Fmt.str "Chase.rule %s: inequality variable %s is not in the body" name v))
  in
  let frontier = SSet.elements (SSet.inter (vars head) (vars body)) in
  {
    atoms = body;
    body = compiled;
    neq = List.map (fun (s, t) -> (term s, term t)) neq;
    frontier;
    frontier_ix = List.map (fun v -> SMap.find v compiled.var_ix) frontier;
    head = hbody;
    head_frontier = List.map (fun v -> SMap.find v hbody.var_ix) frontier;
    existential =
      List.filter_map
        (fun (v, i) -> if List.mem v frontier then None else Some i)
        (SMap.bindings hbody.var_ix);
  }

let egd ?(name = "e") ~body ~left ~right () =
  let ebody = Eval.compile body in
  let ix v =
    match SMap.find_opt v ebody.var_ix with
    | Some i -> i
    | None -> invalid_arg (Fmt.str "Chase.egd %s: %s is not in the body" name v)
  in
  { ename = name; eatoms = body; ebody; left = ix left; right = ix right }

exception Egd_failure of string

type result = { instance : Instance.t }

(* [atom] matched against exactly [fact]: its variables bound to the
   fact's arguments, or [None] when a constant or a repeated variable
   disagrees with them. *)
let pin (_, ts) (fact : Instance.fact) =
  if List.compare_lengths ts fact.args <> 0 then None
  else
    List.fold_left2
      (fun acc t target ->
        Option.bind acc (fun bs ->
            let agrees e = Element.equal e target in
            match t with
            | Logic.Term.Const c -> if agrees (Element.Const c) then Some bs else None
            | Logic.Term.Var v -> (
                match List.assoc_opt v bs with
                | Some e -> if agrees e then Some bs else None
                | None -> Some ((v, target) :: bs))))
      (Some []) ts fact.args

(* Fold [f] over the solutions of a compiled body in [inst]. With a
   delta (the previous round's new facts, by relation), only over the
   solutions that map some atom onto a delta fact: each atom is pinned
   to each delta fact of its relation in turn, and a solution using
   several delta facts is met once per pin. *)
let fold_matches atoms body inst delta f init =
  let f sol acc = (false, f sol acc) in
  match delta with
  | None -> Eval.fold_body inst body f init
  | Some by_rel ->
      List.fold_left
        (fun acc ((rel, _) as atom) ->
          List.fold_left
            (fun acc fact ->
              match pin atom fact with
              | Some bound -> Eval.fold_body inst ~bound body f acc
              | None -> acc)
            acc
            (Option.value (SMap.find_opt rel by_rel) ~default:[]))
        init atoms

let value sol = function Eval.Const e -> e | Eval.Var i -> sol.(i)

(* The rule's triggers in [inst]: its body matches that satisfy the
   inequalities, projected onto the frontier and sorted. Fresh nulls are
   assigned in this order, which does not depend on the index's row
   order, so chase results are reproducible. *)
let triggers r inst delta =
  fold_matches r.atoms r.body inst delta
    (fun sol acc ->
      if List.exists (fun (s, t) -> Element.equal (value sol s) (value sol t)) r.neq
      then acc
      else List.map (fun i -> sol.(i)) r.frontier_ix :: acc)
    []
  |> List.sort_uniq (List.compare Element.compare)

(* Does the frontier tuple extend to the head inside [inst]? *)
let head_satisfied r inst tuple =
  Eval.fold_body inst ~bound:(List.combine r.frontier tuple) r.head
    (fun _ _ -> (true, true))
    false

(* Chase state between rounds. [delta = None] matches every body in
   full: the first round, and the round after an EGD renamed facts. *)
type state = {
  inst : Instance.t;
  delta : Instance.fact list SMap.t option;
  next_null : int;
}

let by_rel facts =
  List.fold_left
    (fun m (f : Instance.fact) ->
      SMap.update f.rel (fun l -> Some (f :: Option.value l ~default:[])) m)
    SMap.empty facts

(* Fire every active trigger of the round. Triggers are matched in the
   instance at the start of the round, and an existential head is
   checked there too, through its cached index; a rule without
   existential variables only adds the head facts it lacks. *)
let apply_rules ~budget rules st =
  List.fold_left
    (fun acc r ->
      List.fold_left
        (fun (out, added, next) tuple ->
          (* one unit of fuel per trigger: between triggers the chased
             instance is a sound prefix of the universal model *)
          Budget.spend budget 1;
          if r.existential <> [] && head_satisfied r st.inst tuple then (out, added, next)
          else begin
            let vals = Array.make (SMap.cardinal r.head.var_ix) (Element.Null 0) in
            List.iter2 (fun i e -> vals.(i) <- e) r.head_frontier tuple;
            List.iteri (fun k i -> vals.(i) <- Element.Null (next + k)) r.existential;
            List.fold_left
              (fun (out, added, next) (a : Eval.atom) ->
                let f = Instance.fact a.rel (Array.to_list (Array.map (value vals) a.args)) in
                if Instance.mem f out then (out, added, next)
                else (Instance.add_fact f out, f :: added, next))
              (out, added, next + List.length r.existential)
              r.head.body_atoms
          end)
        acc (triggers r st.inst st.delta))
    (st.inst, [], st.next_null) rules

(* Merge the elements each EGD equates, a null into the other element.
   Matched semi-naively like rule bodies: when the round began from a
   delta, the EGDs held before its new facts [added] came in. *)
let apply_egds ~budget egds st out added =
  let delta = Option.map (fun _ -> by_rel added) st.delta in
  List.fold_left
    (fun (out, merged) e ->
      let pairs =
        fold_matches e.eatoms e.ebody out delta
          (fun sol acc -> (sol.(e.left), sol.(e.right)) :: acc)
          []
        |> List.sort_uniq (fun (a, b) (c, d) ->
               match Element.compare a c with 0 -> Element.compare b d | k -> k)
      in
      List.fold_left
        (fun (out, merged) (a, b) ->
          Budget.checkpoint budget;
          let rename x y = Instance.map_elements (fun z -> if Element.equal z x then y else z) out in
          if Element.equal a b then (out, merged)
          else
            match (a, b) with
            | Element.Const _, Element.Const _ ->
                raise
                  (Egd_failure
                     (Fmt.str "EGD %s equates distinct constants %a and %a" e.ename Element.pp a
                        Element.pp b))
            | Element.Null _, _ -> (rename a b, true)
            | _, Element.Null _ -> (rename b a, true))
        (out, merged) pairs)
    (out, false) egds

(* One round; [None] once nothing changes. *)
let round ~budget rules egds st =
  let out, added, next_null = apply_rules ~budget rules st in
  let out, merged = apply_egds ~budget egds st out added in
  if merged then Some { inst = out; delta = None; next_null }
  else if added = [] then None
  else Some { inst = out; delta = Some (by_rel added); next_null }

(* The one round loop of [run] and [try_run]; [on_round] sees the
   instance after every completed round. *)
let chase ~budget ~on_round egds rules inst =
  Obs.Trace.with_span ~attrs:[ ("rules", Obs.Trace.Int (List.length rules)) ] "chase.run"
  @@ fun () ->
  let rec go n st =
    match round ~budget rules egds st with
    | None ->
        if Obs.Trace.enabled () then Obs.Trace.add_attr "rounds" (Obs.Trace.Int (n + 1));
        st.inst
    | Some st ->
        on_round st.inst;
        if Obs.Trace.enabled () then
          Obs.Trace.event
            ~attrs:
              [ ("round", Obs.Trace.Int n); ("facts", Obs.Trace.Int (Instance.cardinal st.inst)) ]
            "chase.round";
        go (n + 1) st
  in
  let next_null =
    match Instance.fresh_nulls 1 inst with Element.Null n :: _ -> n | _ -> 0
  in
  go 0 { inst; delta = None; next_null }

let run ?(budget = Budget.unlimited) ?(egds = []) rules inst =
  { instance = chase ~budget ~on_round:ignore egds rules inst }

let try_run budget ?(egds = []) rules inst =
  let last = ref inst in
  Budget.protect budget
    ~partial:(fun () -> { instance = !last })
    (fun () -> { instance = chase ~budget ~on_round:(fun i -> last := i) egds rules inst })

(* Certain answers over the chase result: for Horn rule sets the chase
   is a universal model, so CQ answers over it (restricted to tuples of
   original constants) are exactly the certain answers. *)
let certain_cq ?budget ?egds rules inst q tuple =
  match run ?budget ?egds rules inst with
  | { instance } -> Query.Cq.holds instance q tuple
  | exception Egd_failure _ -> true
