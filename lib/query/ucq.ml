type t = {
  name : string;
  disjuncts : Cq.t list;
}

exception Ill_formed of string

let make ?(name = "Q") disjuncts =
  (match disjuncts with
  | [] -> raise (Ill_formed "a UCQ needs at least one disjunct")
  | q :: rest ->
      let a = Cq.arity q in
      if List.exists (fun q' -> Cq.arity q' <> a) rest then
        raise (Ill_formed "all disjuncts of a UCQ must share the arity"));
  { name; disjuncts }

let of_cq q = make ~name:q.Cq.name [ q ]
let disjuncts t = t.disjuncts
let arity t = match t.disjuncts with q :: _ -> Cq.arity q | [] -> 0
let is_boolean t = arity t = 0

let signature t =
  List.fold_left
    (fun s q -> Logic.Signature.union s (Cq.signature q))
    Logic.Signature.empty t.disjuncts

let answers inst t =
  List.concat_map (Cq.answers inst) t.disjuncts
  |> List.sort_uniq (List.compare Structure.Element.compare)
