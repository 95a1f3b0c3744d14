type t =
  | Var of string
  | Const of string

let pp ppf = function
  | Var v -> Fmt.string ppf v
  | Const c -> Fmt.pf ppf "'%s'" c

let vars ts =
  List.fold_left
    (fun acc t -> match t with Var v -> Names.SSet.add v acc | Const _ -> acc)
    Names.SSet.empty ts
