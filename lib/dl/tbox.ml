type axiom =
  | Sub of Concept.t * Concept.t
  | RoleSub of Concept.role * Concept.role
  | Func of Concept.role

type t = axiom list

let equivalence c d = [ Sub (c, d); Sub (d, c) ]

let concepts t =
  List.concat_map
    (function Sub (c, d) -> [ c; d ] | RoleSub _ | Func _ -> [])
    t

let depth t =
  List.fold_left (fun m c -> max m (Concept.depth c)) 0 (concepts t)

(* DL naming: ALC plus feature letters in the conventional order. *)
type features = {
  h : bool;  (** role inclusions *)
  i : bool;  (** inverse roles *)
  q : bool;  (** qualified number restrictions *)
  f : bool;  (** global partial functions func(R) *)
  f_local : bool;  (** local functionality (≤ 1 R) *)
}

let features t =
  let cs = concepts t in
  {
    h = List.exists (function RoleSub _ -> true | _ -> false) t;
    i =
      List.exists Concept.uses_inverse cs
      || List.exists
           (function
             | RoleSub (r, s) -> (
                 match (r, s) with
                 | Concept.Inv _, _ | _, Concept.Inv _ -> true
                 | _ -> false)
             | Func (Concept.Inv _) -> true
             | _ -> false)
           t;
    q = List.exists Concept.uses_q cs;
    f = List.exists (function Func _ -> true | _ -> false) t;
    f_local = List.exists Concept.uses_local_functionality cs;
  }

let name t =
  let f = features t in
  "ALC"
  ^ (if f.h then "H" else "")
  ^ (if f.i then "I" else "")
  ^ (if f.q then "Q" else "")
  ^ (if f.f then "F" else "")
  ^ if f.f_local then "Fl" else ""

(* Membership tests used by the BioPortal analysis: is every constructor
   within the given DL? *)
let within_alchif t =
  let f = features t in
  not f.q

let within_alchiq _t =
  (* global functionality func(R) is Q-expressible as ⊤ ⊑ (≤ 1 R ⊤),
     so every TBox in this AST lies within ALCHIQ *)
  true

let pp_axiom ppf = function
  | Sub (c, d) -> Fmt.pf ppf "%a << %a" Concept.pp c Concept.pp d
  | RoleSub (r, s) ->
      Fmt.pf ppf "role %a << %a" Concept.pp_role r Concept.pp_role s
  | Func r -> Fmt.pf ppf "func %a" Concept.pp_role r

let pp ppf t = Fmt.pf ppf "@[<v>%a@]" Fmt.(list ~sep:cut pp_axiom) t
