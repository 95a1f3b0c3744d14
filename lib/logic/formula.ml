module SSet = Names.SSet
module SMap = Names.SMap

type t =
  | True
  | False
  | Atom of string * Term.t list
  | Eq of Term.t * Term.t
  | Not of t
  | And of t * t
  | Or of t * t
  | Implies of t * t
  | Forall of string list * t
  | Exists of string list * t
  | CountGeq of int * string * t

(* ------------------------------------------------------------------ *)
(* Smart constructors                                                   *)
(* ------------------------------------------------------------------ *)

let tru = True
let fls = False
let atom r ts = Atom (r, ts)

let neg = function
  | True -> False
  | False -> True
  | Not f -> f
  | f -> Not f

let conj2 a b =
  match (a, b) with
  | True, f | f, True -> f
  | False, _ | _, False -> False
  | _ -> And (a, b)

let disj2 a b =
  match (a, b) with
  | False, f | f, False -> f
  | True, _ | _, True -> True
  | _ -> Or (a, b)

let conj fs = List.fold_left conj2 True fs
let disj fs = List.fold_left disj2 False fs

let implies a b =
  match (a, b) with
  | True, f -> f
  | False, _ -> True
  | _, True -> True
  | _ -> Implies (a, b)

(* Domains are non-empty, so quantifying a constant formula is the
   constant itself. *)
let forall vs f =
  match f with
  | True | False -> f
  | _ -> if vs = [] then f else Forall (vs, f)

let exists vs f =
  match f with
  | True | False -> f
  | _ -> if vs = [] then f else Exists (vs, f)

let count_geq n v f =
  match f with
  | False -> False
  | _ -> if n <= 0 then True else CountGeq (n, v, f)

(* ------------------------------------------------------------------ *)
(* Traversals                                                           *)
(* ------------------------------------------------------------------ *)

let rec free_vars = function
  | True | False -> SSet.empty
  | Atom (_, ts) -> Term.vars ts
  | Eq (s, t) -> Term.vars [ s; t ]
  | Not f -> free_vars f
  | And (a, b) | Or (a, b) | Implies (a, b) ->
      SSet.union (free_vars a) (free_vars b)
  | Forall (vs, f) | Exists (vs, f) ->
      SSet.diff (free_vars f) (SSet.of_list vs)
  | CountGeq (_, v, f) -> SSet.remove v (free_vars f)

let is_sentence f = SSet.is_empty (free_vars f)

let rec all_vars = function
  | True | False -> SSet.empty
  | Atom (_, ts) -> Term.vars ts
  | Eq (s, t) -> Term.vars [ s; t ]
  | Not f -> all_vars f
  | And (a, b) | Or (a, b) | Implies (a, b) ->
      SSet.union (all_vars a) (all_vars b)
  | Forall (vs, f) | Exists (vs, f) ->
      SSet.union (SSet.of_list vs) (all_vars f)
  | CountGeq (_, v, f) -> SSet.add v (all_vars f)

let rec relations = function
  | True | False | Eq _ -> SMap.empty
  | Atom (r, ts) -> SMap.singleton r (List.length ts)
  | Not f -> relations f
  | And (a, b) | Or (a, b) | Implies (a, b) ->
      SMap.union (fun _ x _ -> Some x) (relations a) (relations b)
  | Forall (_, f) | Exists (_, f) | CountGeq (_, _, f) -> relations f

let rec subformulas f =
  f
  ::
  (match f with
  | True | False | Atom _ | Eq _ -> []
  | Not g | Forall (_, g) | Exists (_, g) | CountGeq (_, _, g) ->
      subformulas g
  | And (a, b) | Or (a, b) | Implies (a, b) ->
      subformulas a @ subformulas b)

(* ------------------------------------------------------------------ *)
(* Negation normal form                                                 *)
(* ------------------------------------------------------------------ *)

let rec nnf f =
  match f with
  | True | False | Atom _ | Eq _ -> f
  | And (a, b) -> And (nnf a, nnf b)
  | Or (a, b) -> Or (nnf a, nnf b)
  | Implies (a, b) -> Or (nnf (Not a), nnf b)
  | Forall (vs, g) -> Forall (vs, nnf g)
  | Exists (vs, g) -> Exists (vs, nnf g)
  | CountGeq (n, v, g) -> CountGeq (n, v, nnf g)
  | Not g -> (
      match g with
      | True -> False
      | False -> True
      | Atom _ | Eq _ -> Not g
      | Not h -> nnf h
      | And (a, b) -> Or (nnf (Not a), nnf (Not b))
      | Or (a, b) -> And (nnf (Not a), nnf (Not b))
      | Implies (a, b) -> And (nnf a, nnf (Not b))
      | Forall (vs, h) -> Exists (vs, nnf (Not h))
      | Exists (vs, h) -> Forall (vs, nnf (Not h))
      | CountGeq (n, v, h) -> Not (CountGeq (n, v, nnf h)))

(* ------------------------------------------------------------------ *)
(* Pretty printing                                                      *)
(* ------------------------------------------------------------------ *)

let rec pp ppf = function
  | True -> Fmt.string ppf "true"
  | False -> Fmt.string ppf "false"
  | Atom (r, ts) -> Fmt.pf ppf "%s(%a)" r Fmt.(list ~sep:comma Term.pp) ts
  | Eq (s, t) -> Fmt.pf ppf "%a = %a" Term.pp s Term.pp t
  | Not f -> Fmt.pf ppf "~%a" pp_paren f
  | And (a, b) -> Fmt.pf ppf "%a /\\ %a" pp_paren a pp_paren b
  | Or (a, b) -> Fmt.pf ppf "%a \\/ %a" pp_paren a pp_paren b
  | Implies (a, b) -> Fmt.pf ppf "%a -> %a" pp_paren a pp_paren b
  | Forall (vs, f) ->
      Fmt.pf ppf "forall %a. %a" Fmt.(list ~sep:sp string) vs pp_paren f
  | Exists (vs, f) ->
      Fmt.pf ppf "exists %a. %a" Fmt.(list ~sep:sp string) vs pp_paren f
  | CountGeq (n, v, f) -> Fmt.pf ppf "exists>=%d %s. %a" n v pp_paren f

and pp_paren ppf f =
  match f with
  | True | False | Atom _ | Eq _ | Not _ -> pp ppf f
  | _ -> Fmt.pf ppf "(%a)" pp f

let to_string f = Fmt.str "%a" pp f
let compare = Stdlib.compare
let equal a b = compare a b = 0
