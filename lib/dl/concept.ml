type role =
  | Name of string
  | Inv of string

let role_name = function Name r | Inv r -> r

let pp_role ppf = function
  | Name r -> Fmt.string ppf r
  | Inv r -> Fmt.pf ppf "%s-" r

type t =
  | Top
  | Bot
  | Atomic of string
  | Not of t
  | And of t * t
  | Or of t * t
  | Exists of role * t
  | Forall of role * t
  | AtLeast of int * role * t
  | AtMost of int * role * t

(* Sugar *)
let leq_one r = AtMost (1, r, Top)
let exactly n r c = And (AtLeast (n, r, c), AtMost (n, r, c))

let conj = function [] -> Top | c :: cs -> List.fold_left (fun a b -> And (a, b)) c cs
let disj = function [] -> Bot | c :: cs -> List.fold_left (fun a b -> Or (a, b)) c cs

let rec depth = function
  | Top | Bot | Atomic _ -> 0
  | Not c -> depth c
  | And (a, b) | Or (a, b) -> max (depth a) (depth b)
  | Exists (_, c) | Forall (_, c) | AtLeast (_, _, c) | AtMost (_, _, c) ->
      1 + depth c

let rec roles = function
  | Top | Bot | Atomic _ -> []
  | Not c -> roles c
  | And (a, b) | Or (a, b) -> roles a @ roles b
  | Exists (r, c) | Forall (r, c) | AtLeast (_, r, c) | AtMost (_, r, c) ->
      r :: roles c

(* Feature detection for DL naming. *)
let rec uses_inverse = function
  | Top | Bot | Atomic _ -> false
  | Not c -> uses_inverse c
  | And (a, b) | Or (a, b) -> uses_inverse a || uses_inverse b
  | Exists (r, c) | Forall (r, c) | AtLeast (_, r, c) | AtMost (_, r, c) ->
      (match r with Inv _ -> true | Name _ -> false) || uses_inverse c

(* Qualified number restrictions beyond local functionality (≤ 1 R ⊤). *)
let rec uses_q = function
  | Top | Bot | Atomic _ -> false
  | Not c -> uses_q c
  | And (a, b) | Or (a, b) -> uses_q a || uses_q b
  | Exists (_, c) | Forall (_, c) -> uses_q c
  | AtMost (1, _, Top) -> false
  | AtLeast (1, _, c) -> uses_q c
  | AtLeast (_, _, _) | AtMost (_, _, _) -> true

(* Local functionality (≤ 1 R ⊤), the F-ell feature. *)
let rec uses_local_functionality = function
  | Top | Bot | Atomic _ -> false
  | Not c -> uses_local_functionality c
  | And (a, b) | Or (a, b) ->
      uses_local_functionality a || uses_local_functionality b
  | Exists (_, c) | Forall (_, c) -> uses_local_functionality c
  | AtMost (1, _, Top) -> true
  | AtLeast (_, _, c) | AtMost (_, _, c) -> uses_local_functionality c

(* Negation normal form. *)
let rec nnf = function
  | (Top | Bot | Atomic _) as c -> c
  | And (a, b) -> And (nnf a, nnf b)
  | Or (a, b) -> Or (nnf a, nnf b)
  | Exists (r, c) -> Exists (r, nnf c)
  | Forall (r, c) -> Forall (r, nnf c)
  | AtLeast (n, r, c) -> AtLeast (n, r, nnf c)
  | AtMost (n, r, c) -> AtMost (n, r, nnf c)
  | Not c -> (
      match c with
      | Top -> Bot
      | Bot -> Top
      | Atomic _ -> Not c
      | Not d -> nnf d
      | And (a, b) -> Or (nnf (Not a), nnf (Not b))
      | Or (a, b) -> And (nnf (Not a), nnf (Not b))
      | Exists (r, d) -> Forall (r, nnf (Not d))
      | Forall (r, d) -> Exists (r, nnf (Not d))
      | AtLeast (n, r, d) -> AtMost (n - 1, r, nnf d)
      | AtMost (n, r, d) -> AtLeast (n + 1, r, nnf d))

let rec pp ppf = function
  | Top -> Fmt.string ppf "Top"
  | Bot -> Fmt.string ppf "Bot"
  | Atomic a -> Fmt.string ppf a
  | Not c -> Fmt.pf ppf "not %a" pp_paren c
  | And (a, b) -> Fmt.pf ppf "%a and %a" pp_paren a pp_paren b
  | Or (a, b) -> Fmt.pf ppf "%a or %a" pp_paren a pp_paren b
  | Exists (r, c) -> Fmt.pf ppf "exists %a. %a" pp_role r pp_paren c
  | Forall (r, c) -> Fmt.pf ppf "forall %a. %a" pp_role r pp_paren c
  | AtLeast (n, r, c) -> Fmt.pf ppf ">=%d %a. %a" n pp_role r pp_paren c
  | AtMost (n, r, c) -> Fmt.pf ppf "<=%d %a. %a" n pp_role r pp_paren c

and pp_paren ppf c =
  match c with
  | Top | Bot | Atomic _ | Not _ -> pp ppf c
  | _ -> Fmt.pf ppf "(%a)" pp c

let to_string c = Fmt.str "%a" pp c
let compare = Stdlib.compare
let equal a b = compare a b = 0
