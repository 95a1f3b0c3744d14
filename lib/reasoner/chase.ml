module SMap = Logic.Names.SMap

(* The restricted chase for existential rules (TGDs) and equality
   generating dependencies (EGDs). Complete for certain answers w.r.t.
   Horn ontologies: the chase result is a universal model. *)

type rule = {
  name : string;
  body : Query.Cq.atom list;
  head : Query.Cq.atom list;  (** head-only variables are existential *)
}

type egd = {
  ename : string;
  ebody : Query.Cq.atom list;
  left : string;
  right : string;
}

let rule ?(name = "r") ~body ~head () = { name; body; head }
let egd ?(name = "e") ~body ~left ~right () = { ename = name; ebody = body; left; right }

let atom_vars atoms =
  List.fold_left
    (fun acc (_, ts) -> Logic.Names.SSet.union acc (Logic.Term.vars ts))
    Logic.Names.SSet.empty atoms

(* All homomorphisms from the body into [inst] (constants denote
   themselves), as variable bindings in a canonical sorted order — rule
   application assigns fresh nulls in binding order, and the index's row
   order (hence the planner's enumeration order) depends on how the
   index was built, so sorting keeps chase results reproducible. *)
let body_matches atoms inst =
  let body = Structure.Eval.compile atoms in
  Structure.Eval.fold_body inst body
    (fun sol acc -> (false, SMap.map (fun i -> sol.(i)) body.var_ix :: acc))
    []
  |> List.sort_uniq (SMap.compare Structure.Element.compare)

let instantiate_atom bind (r, ts) =
  Structure.Instance.fact r
    (List.map
       (fun t ->
         match t with
         | Logic.Term.Const c -> Structure.Element.Const c
         | Logic.Term.Var v -> SMap.find v bind)
       ts)

(* Does the binding extend to the head inside [inst]? (restricted chase) *)
let head_satisfied rule bind inst =
  let head_vars = atom_vars rule.head in
  let frontier = atom_vars rule.body in
  let existential =
    Logic.Names.SSet.diff head_vars frontier |> Logic.Names.SSet.elements
  in
  let q =
    Query.Cq.make ~name:"head"
      ~answer:
        (Logic.Names.SSet.elements (Logic.Names.SSet.inter head_vars frontier))
      rule.head
  in
  ignore existential;
  let tuple = List.map (fun v -> SMap.find v bind) q.Query.Cq.answer in
  Query.Cq.holds inst q tuple

exception Egd_failure of string

type result = {
  instance : Structure.Instance.t;
  saturated : bool;  (** fixpoint reached within the round budget *)
}

let apply_rule ?(budget = Budget.unlimited) inst rule =
  let changed = ref false in
  let out = ref inst in
  List.iter
    (fun bind ->
      (* one checkpoint per trigger: between triggers the chased
         instance is a sound (if unsaturated) prefix *)
      Budget.checkpoint budget;
      if not (head_satisfied rule bind !out) then begin
        (* Extend the binding with fresh nulls for existential variables. *)
        let head_vars = atom_vars rule.head in
        let frontier = atom_vars rule.body in
        let existential =
          Logic.Names.SSet.elements (Logic.Names.SSet.diff head_vars frontier)
        in
        let nulls =
          Structure.Instance.fresh_nulls (List.length existential) !out
        in
        let bind =
          List.fold_left2
            (fun b v n -> SMap.add v n b)
            bind existential nulls
        in
        List.iter
          (fun atom ->
            out := Structure.Instance.add_fact (instantiate_atom bind atom) !out)
          rule.head;
        changed := true
      end)
    (body_matches rule.body inst);
  (!out, !changed)

let apply_egd ?(budget = Budget.unlimited) inst e =
  let changed = ref false in
  let out = ref inst in
  List.iter
    (fun bind ->
      Budget.checkpoint budget;
      let a = SMap.find e.left bind and b = SMap.find e.right bind in
      if not (Structure.Element.equal a b) then
        match (a, b) with
        | Structure.Element.Const _, Structure.Element.Const _ ->
            raise
              (Egd_failure
                 (Fmt.str "EGD %s equates distinct constants %a and %a"
                    e.ename Structure.Element.pp a Structure.Element.pp b))
        | Structure.Element.Null _, _ ->
            out :=
              Structure.Instance.map_elements
                (fun x -> if Structure.Element.equal x a then b else x)
                !out;
            changed := true
        | _, Structure.Element.Null _ ->
            out :=
              Structure.Instance.map_elements
                (fun x -> if Structure.Element.equal x b then a else x)
                !out;
            changed := true)
    (body_matches e.ebody inst);
  (!out, !changed)

(* Run the restricted chase for at most [max_rounds] rounds. Raises
   [Egd_failure] when an EGD equates distinct constants (inconsistent)
   and [Budget.Exhausted] on a budget trip. *)
let run ?(budget = Budget.unlimited) ?(max_rounds = 50) ?(egds = []) rules inst
    =
  Obs.Trace.with_span ~attrs:[ ("rules", Obs.Trace.Int (List.length rules)) ]
    "chase.run"
  @@ fun () ->
  let finish round res =
    if Obs.Trace.enabled () then begin
      Obs.Trace.add_attr "rounds" (Obs.Trace.Int round);
      Obs.Trace.add_attr "saturated" (Obs.Trace.Bool res.saturated)
    end;
    res
  in
  let rec go inst round =
    if round >= max_rounds then
      finish round { instance = inst; saturated = false }
    else begin
      let inst', changed =
        List.fold_left
          (fun (i, ch) r ->
            let i', ch' = apply_rule ~budget i r in
            (i', ch || ch'))
          (inst, false) rules
      in
      let inst'', changed' =
        List.fold_left
          (fun (i, ch) e ->
            let i', ch' = apply_egd ~budget i e in
            (i', ch || ch'))
          (inst', changed) egds
      in
      if Obs.Trace.enabled () then
        Obs.Trace.event
          ~attrs:
            [
              ("round", Obs.Trace.Int round);
              ( "facts",
                Obs.Trace.Int (List.length (Structure.Instance.facts inst'')) );
            ]
          "chase.round";
      if changed' then go inst'' (round + 1)
      else finish (round + 1) { instance = inst''; saturated = true }
    end
  in
  go inst 0

(* Typed form: on a trip, the partial payload is the chase state after
   the last fully completed round — every fact in it is entailed, so it
   is a sound under-approximation of the universal model. *)
let try_run budget ?(max_rounds = 50) ?(egds = []) rules inst =
  let last = ref { instance = inst; saturated = false } in
  Budget.protect budget
    ~partial:(fun () -> !last)
    (fun () ->
      Obs.Trace.with_span
        ~attrs:[ ("rules", Obs.Trace.Int (List.length rules)) ]
        "chase.run"
      @@ fun () ->
      let rec go inst round =
        if round >= max_rounds then { instance = inst; saturated = false }
        else begin
          let inst', changed =
            List.fold_left
              (fun (i, ch) r ->
                let i', ch' = apply_rule ~budget i r in
                (i', ch || ch'))
              (inst, false) rules
          in
          let inst'', changed' =
            List.fold_left
              (fun (i, ch) e ->
                let i', ch' = apply_egd ~budget i e in
                (i', ch || ch'))
              (inst', changed) egds
          in
          last := { instance = inst''; saturated = not changed' };
          Obs.Trace.event
            ~attrs:[ ("round", Obs.Trace.Int round) ]
            "chase.round";
          if changed' then go inst'' (round + 1)
          else { instance = inst''; saturated = true }
        end
      in
      go inst 0)

(* Certain answers over the chase result: for Horn rule sets the chase
   is a universal model, so CQ answers over it (restricted to tuples of
   original constants) are exactly the certain answers. *)
let certain_cq ?budget ?max_rounds ?egds rules inst q tuple =
  match run ?budget ?max_rounds ?egds rules inst with
  | { instance = chased; _ } -> Query.Cq.holds chased q tuple
  | exception Egd_failure _ -> true
