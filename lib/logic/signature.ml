module SMap = Names.SMap

type t = int SMap.t

exception Arity_mismatch of string * int * int

let empty = SMap.empty
let add name arity s =
  match SMap.find_opt name s with
  | Some a when a <> arity -> raise (Arity_mismatch (name, a, arity))
  | _ -> SMap.add name arity s

let of_list l = List.fold_left (fun s (n, a) -> add n a s) empty l
let arity name s = SMap.find_opt name s
let mem name s = SMap.mem name s

let union a b =
  SMap.union
    (fun name x y ->
      if x = y then Some x else raise (Arity_mismatch (name, x, y)))
    a b

let of_formula f = Formula.relations f

let of_formulas fs =
  List.fold_left (fun acc f -> union acc (of_formula f)) empty fs

let subset a b =
  SMap.for_all
    (fun name arity -> SMap.find_opt name b = Some arity)
    a

let to_list s = SMap.bindings s
let max_arity s = SMap.fold (fun _ a m -> max a m) s 0
