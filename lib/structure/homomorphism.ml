module ESet = Element.Set
module EMap = Element.Map

type map = Element.t EMap.t

let apply m e = Option.value (EMap.find_opt e m) ~default:e

let is_homomorphism m ~source ~target =
  List.for_all
    (fun (f : Instance.fact) ->
      Instance.mem { f with args = List.map (apply m) f.args } target)
    (Instance.facts source)
  && EMap.for_all (fun _ v -> ESet.mem v (Instance.domain target)) m

(* Order the unassigned source elements so that each element is, as far as
   possible, connected to the previously chosen ones: this makes candidate
   filtering through incident facts effective. *)
let search_order source fixed =
  let g = Gaifman.of_instance source in
  let seen = Hashtbl.create 16 in
  let order = ref [] in
  let push e =
    if not (Hashtbl.mem seen e) then begin
      Hashtbl.replace seen e ();
      if not (EMap.mem e fixed) then order := e :: !order
    end
  in
  let rec bfs frontier =
    match frontier with
    | [] -> ()
    | e :: rest ->
        let nbrs =
          ESet.elements
            (ESet.filter
               (fun v -> not (Hashtbl.mem seen v))
               (Gaifman.neighbours g e))
        in
        List.iter push nbrs;
        bfs (rest @ nbrs)
  in
  EMap.iter (fun e _ -> Hashtbl.replace seen e ()) fixed;
  bfs (List.map fst (EMap.bindings fixed));
  ESet.iter
    (fun e ->
      if not (Hashtbl.mem seen e) then begin
        push e;
        bfs [ e ]
      end)
    (Instance.domain source);
  List.rev !order

(* Candidate images for [e] given partial map [m]: pick the incident fact
   with the fewest unassigned argument positions and collect the values
   of matching target tuples at [e]'s positions. *)
let candidates source target m e =
  let restrict_by (f : Instance.fact) =
    let tuples = Instance.tuples f.rel target in
    List.fold_left
      (fun acc tuple ->
        let ok = ref true in
        let img_of_e = ref None in
        List.iteri
          (fun i a ->
            let tv = List.nth tuple i in
            match EMap.find_opt a m with
            | Some v -> if not (Element.equal v tv) then ok := false
            | None ->
                if Element.equal a e then
                  match !img_of_e with
                  | None -> img_of_e := Some tv
                  | Some v -> if not (Element.equal v tv) then ok := false)
          f.args;
        match (!ok, !img_of_e) with
        | true, Some v -> ESet.add v acc
        | _ -> acc)
      ESet.empty tuples
  in
  let best =
    List.fold_left
      (fun best (f : Instance.fact) ->
        let unassigned =
          List.length
            (List.filter
               (fun a -> (not (EMap.mem a m)) && not (Element.equal a e))
               f.args)
        in
        match best with
        | Some (u, _) when u <= unassigned -> best
        | _ -> Some (unassigned, f))
      None
      (Instance.incident e source)
  in
  match best with
  | Some (_, f) -> restrict_by f
  | None -> Instance.domain target

(* Check all source facts mentioning [e] whose arguments are now fully
   assigned. *)
let consistent source target m e =
  List.for_all
    (fun (f : Instance.fact) ->
      match
        List.fold_left
          (fun acc a ->
            match acc with
            | None -> None
            | Some imgs -> (
                match EMap.find_opt a m with
                | Some v -> Some (v :: imgs)
                | None -> None))
          (Some []) f.args
      with
      | None -> true
      | Some rev_imgs ->
          Instance.mem { f with args = List.rev rev_imgs } target)
    (Instance.incident e source)

let fold_naive ?(fixed = EMap.empty) ?(injective = false) ~source ~target f
    init =
  let order = search_order source fixed in
  let acc = ref init in
  let continue = ref true in
  let used = EMap.fold (fun _ v s -> ESet.add v s) fixed ESet.empty in
  let rec go m used = function
    | [] ->
        let stop, acc' = f m !acc in
        acc := acc';
        if stop then continue := false
    | e :: rest ->
        let cands = candidates source target m e in
        ESet.iter
          (fun v ->
            if !continue && not (injective && ESet.mem v used) then begin
              let m' = EMap.add e v m in
              if consistent source target m' e then
                go m' (ESet.add v used) rest
            end)
          cands
  in
  let fixed_ok =
    EMap.for_all
      (fun e v ->
        ESet.mem v (Instance.domain target)
        && ESet.mem e (Instance.domain source)
        && consistent source target fixed e)
      fixed
  in
  if fixed_ok then go fixed used order;
  !acc

(* Planner-backed enumeration: source elements that occur in facts
   become join variables over the target's [Relindex]; source elements
   with no incident fact ("isolated") are unconstrained and range over
   the whole target domain, exactly as [fold_naive]'s [candidates]
   fallback. Solutions come in plan order, deterministically. *)
let fold_eval ~fixed ~source ~target f init =
  let fixed_ok =
    EMap.for_all
      (fun e v ->
        ESet.mem v (Instance.domain target)
        && ESet.mem e (Instance.domain source))
      fixed
  in
  if not fixed_ok then init
  else begin
    let idx = Relindex.of_instance target in
    let var_of = Element.Tbl.create 16 in
    let nvars = ref 0 in
    let atoms =
      List.map
        (fun (fct : Instance.fact) ->
          Eval.atom fct.rel
            (List.map
               (fun e ->
                 match Element.Tbl.find_opt var_of e with
                 | Some v -> Eval.Var v
                 | None ->
                     let v = !nvars in
                     incr nvars;
                     Element.Tbl.add var_of e v;
                     Eval.Var v)
               fct.args))
        (Instance.facts source)
    in
    let isolated =
      List.filter
        (fun e -> not (Element.Tbl.mem var_of e))
        (Instance.domain_list source)
    in
    let bindings =
      EMap.fold
        (fun e v acc ->
          match Element.Tbl.find_opt var_of e with
          | Some var -> (var, v) :: acc
          | None -> acc)
        fixed []
    in
    let plan = Eval.make_plan idx ~bound:(List.map fst bindings) atoms in
    let inv = Array.make (max 1 !nvars) (Element.Null min_int) in
    Element.Tbl.iter (fun e v -> inv.(v) <- e) var_of;
    let target_dom = Instance.domain_list target in
    let continue = ref true in
    let acc = ref init in
    let emit m =
      let stop, acc' = f m !acc in
      acc := acc';
      if stop then continue := false
    in
    let rec extend m = function
      | [] -> emit m
      | e :: rest -> (
          match EMap.find_opt e fixed with
          | Some v -> extend (EMap.add e v m) rest
          | None ->
              List.iter
                (fun v -> if !continue then extend (EMap.add e v m) rest)
                target_dom)
    in
    Eval.fold idx plan ~bindings
      (fun sol () ->
        let m = ref EMap.empty in
        for v = 0 to !nvars - 1 do
          m := EMap.add inv.(v) sol.(v) !m
        done;
        extend !m isolated;
        ((not !continue), ()))
      ();
    !acc
  end

let fold ?(fixed = EMap.empty) ?(injective = false) ~source ~target f init =
  if injective then fold_naive ~fixed ~injective ~source ~target f init
  else fold_eval ~fixed ~source ~target f init

let find ?(fixed = EMap.empty) ?(injective = false) ~source ~target () =
  fold ~fixed ~injective ~source ~target (fun m _ -> (true, Some m)) None

let exists ?(fixed = EMap.empty) ?(injective = false) ~source ~target () =
  Option.is_some (find ~fixed ~injective ~source ~target ())

let all ?(fixed = EMap.empty) ?(injective = false) ?limit ~source ~target () =
  let res =
    fold ~fixed ~injective ~source ~target
      (fun m acc ->
        let acc = m :: acc in
        match limit with
        | Some l when List.length acc >= l -> (true, acc)
        | _ -> (false, acc))
      []
  in
  List.rev res

let fixed_identity elems =
  ESet.fold (fun e m -> EMap.add e e m) elems EMap.empty
