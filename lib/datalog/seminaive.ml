module SMap = Logic.Names.SMap

(* Semi-naive bottom-up evaluation: in every round after the first, a
   rule only fires through matches that use at least one fact derived in
   the previous round (the delta), found by pinning one positive body
   atom to each delta fact in turn. *)

(* All bindings of [body]'s variables in [inst], as maps var -> element.
   When [pin = Some (atom, fact)] the given atom is matched against
   exactly that fact: its variables become pre-bound, its constants must
   equal the fact's arguments, and a variable repeated in the atom must
   meet equal arguments. *)
let body_bindings inst body ~pin =
  let cbody = Structure.Eval.compile (Program.positive_atoms body) in
  let bound =
    match pin with
    | None -> Some []
    | Some ((_, ts), (fact : Structure.Instance.fact)) ->
        if List.length ts <> List.length fact.args then None
        else
          List.fold_left2
            (fun acc t target ->
              Option.bind acc (fun bs ->
                  let agrees e = Structure.Element.equal e target in
                  match t with
                  | Logic.Term.Const c ->
                      if agrees (Structure.Element.Const c) then Some bs
                      else None
                  | Logic.Term.Var v -> (
                      match List.assoc_opt v bs with
                      | Some e -> if agrees e then Some bs else None
                      | None -> Some ((v, target) :: bs))))
            (Some []) ts fact.args
  in
  match bound with
  | None -> []
  | Some bound ->
      Structure.Eval.fold_body inst ~bound cbody
        (fun sol acc -> (false, SMap.map (fun i -> sol.(i)) cbody.var_ix :: acc))
        []

let neq_holds bind (s, t) =
  let value = function
    | Logic.Term.Const c -> Structure.Element.Const c
    | Logic.Term.Var v -> SMap.find v bind
  in
  not (Structure.Element.equal (value s) (value t))

let instantiate_head bind (r, ts) =
  Structure.Instance.fact r
    (List.map
       (function
         | Logic.Term.Const c -> Structure.Element.Const c
         | Logic.Term.Var v -> SMap.find v bind)
       ts)

let fire_rule inst (rule : Program.rule) ~pin =
  List.filter_map
    (fun bind ->
      let neqs_ok =
        List.for_all
          (function
            | Program.Neq (s, t) -> neq_holds bind (s, t)
            | Program.Pos _ -> true)
          rule.body
      in
      if neqs_ok then Some (instantiate_head bind rule.head) else None)
    (body_bindings inst rule.body ~pin)

(* Full fixpoint. *)
let evaluate (p : Program.t) edb =
  (* Round 0: naive evaluation of every rule. *)
  let new_facts inst facts =
    List.filter (fun f -> not (Structure.Instance.mem f inst)) facts
  in
  let initial =
    List.concat_map (fun r -> fire_rule edb r ~pin:None) p.rules
  in
  let rec loop inst delta =
    if delta = [] then inst
    else begin
      let inst' =
        List.fold_left (fun i f -> Structure.Instance.add_fact f i) inst delta
      in
      let derived =
        List.concat_map
          (fun (r : Program.rule) ->
            List.concat_map
              (fun atom ->
                List.concat_map
                  (fun (d : Structure.Instance.fact) ->
                    if d.rel = fst atom then
                      fire_rule inst' r ~pin:(Some (atom, d))
                    else [])
                  delta)
              (Program.positive_atoms r.body))
          p.rules
      in
      let fresh =
        List.sort_uniq Structure.Instance.compare_fact (new_facts inst' derived)
      in
      loop inst' fresh
    end
  in
  loop edb (List.sort_uniq Structure.Instance.compare_fact (new_facts edb initial))

(* Goal answers D |= Π(ā). *)
let answers p edb =
  let result = evaluate p edb in
  Structure.Instance.tuples p.Program.goal result
  |> List.sort_uniq (List.compare Structure.Element.compare)

let holds p edb tuple =
  let result = evaluate p edb in
  Structure.Instance.mem (Structure.Instance.fact p.Program.goal tuple) result

(* Reference naive evaluation (for testing). *)
let evaluate_naive (p : Program.t) edb =
  let step inst =
    List.fold_left
      (fun i (r : Program.rule) ->
        List.fold_left
          (fun i f -> Structure.Instance.add_fact f i)
          i
          (fire_rule inst r ~pin:None))
      inst p.rules
  in
  let rec loop inst =
    let inst' = step inst in
    if Structure.Instance.equal inst' inst then inst else loop inst'
  in
  loop edb
