module ESet = Element.Set

(* A set G is guarded if it is a singleton or contained in the argument
   set of some fact (Section 2.2). *)
let is_guarded t g =
  match ESet.cardinal g with
  | 0 -> false
  | 1 -> ESet.subset g (Instance.domain t)
  | _ -> (
      match ESet.choose_opt g with
      | None -> false
      | Some e ->
          List.exists
            (fun (f : Instance.fact) ->
              ESet.subset g (ESet.of_list f.args))
            (Instance.incident e t))

(* All guarded sets arising from facts (argument sets), plus singletons. *)
let all_guarded_sets t =
  let from_facts =
    List.fold_left
      (fun acc (f : Instance.fact) ->
        let s = ESet.of_list f.args in
        if ESet.is_empty s then acc else s :: acc)
      [] (Instance.facts t)
  in
  let singletons =
    List.map ESet.singleton (Instance.domain_list t)
  in
  List.sort_uniq ESet.compare (from_facts @ singletons)

(* Maximal guarded sets under set inclusion. *)
let maximal_guarded_sets t =
  let sets = all_guarded_sets t in
  List.filter
    (fun g ->
      not
        (List.exists
           (fun g' -> (not (ESet.equal g g')) && ESet.subset g g')
           sets))
    sets
