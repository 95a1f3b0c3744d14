module SSet = Names.SSet
module SMap = Names.SMap

type t = Term.t SMap.t

let of_list l = SMap.of_seq (List.to_seq l)
let singleton v t = SMap.singleton v t

let apply_term s = function
  | Term.Var v as t -> ( match SMap.find_opt v s with Some u -> u | None -> t)
  | Term.Const _ as t -> t

(* Variables that may be captured when substituting under a binder. *)
let range_vars s =
  SMap.fold
    (fun _ t acc ->
      match t with Term.Var v -> SSet.add v acc | Term.Const _ -> acc)
    s SSet.empty

let rec apply s f =
  let open Formula in
  if SMap.is_empty s then f
  else
    match f with
    | True | False -> f
    | Atom (r, ts) -> Atom (r, List.map (apply_term s) ts)
    | Eq (a, b) -> Eq (apply_term s a, apply_term s b)
    | Not g -> Not (apply s g)
    | And (a, b) -> And (apply s a, apply s b)
    | Or (a, b) -> Or (apply s a, apply s b)
    | Implies (a, b) -> Implies (apply s a, apply s b)
    | Forall (vs, g) ->
        let vs', g' = binder s vs g in
        Forall (vs', g')
    | Exists (vs, g) ->
        let vs', g' = binder s vs g in
        Exists (vs', g')
    | CountGeq (n, v, g) -> (
        match binder s [ v ] g with
        | [ v' ], g' -> CountGeq (n, v', g')
        | _ -> assert false)

(* Substitute under a binder [vs . g]: drop bindings for the bound
   variables and rename bound variables that would capture a variable in
   the range of the substitution. *)
and binder s vs g =
  let s = List.fold_left (fun s v -> SMap.remove v s) s vs in
  let captured = range_vars s in
  let avoid =
    SSet.union captured (SSet.union (Formula.all_vars g) (SSet.of_list vs))
  in
  let rename (avoid, ren, vs') v =
    if SSet.mem v captured then
      let v' = Names.fresh ~avoid v in
      (SSet.add v' avoid, SMap.add v (Term.Var v') ren, v' :: vs')
    else (avoid, ren, v :: vs')
  in
  let _, ren, rev_vs = List.fold_left rename (avoid, SMap.empty, []) vs in
  let g = if SMap.is_empty ren then g else apply ren g in
  (List.rev rev_vs, apply s g)
