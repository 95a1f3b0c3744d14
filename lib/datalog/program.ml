module SSet = Logic.Names.SSet

type atom = string * Logic.Term.t list

type literal =
  | Pos of atom  (** relational body atom *)
  | Neq of Logic.Term.t * Logic.Term.t  (** inequality (Datalog≠) *)

type rule = {
  head : atom;
  body : literal list;
}

type t = {
  rules : rule list;
  goal : string;  (** the selected goal relation *)
}

exception Unsafe_rule of string

let atom_vars (_, ts) = Logic.Term.vars ts

let positive_atoms body =
  List.filter_map (function Pos a -> Some a | Neq _ -> None) body

let term_vars = function Logic.Term.Var v -> [ v ] | Logic.Term.Const _ -> []

(* Range restriction: every head variable and every variable in an
   inequality must occur in a positive body atom. *)
let check_rule r =
  let pos_vars =
    List.fold_left
      (fun acc a -> SSet.union acc (atom_vars a))
      SSet.empty (positive_atoms r.body)
  in
  let needed =
    SSet.union (atom_vars r.head)
      (List.fold_left
         (fun acc -> function
           | Pos _ -> acc
           | Neq (s, t) -> SSet.union acc (SSet.of_list (term_vars s @ term_vars t)))
         SSet.empty r.body)
  in
  if not (SSet.subset needed pos_vars) then
    raise
      (Unsafe_rule
         (Printf.sprintf "rule for %s: variables {%s} not range-restricted"
            (fst r.head)
            (String.concat ","
               (SSet.elements (SSet.diff needed pos_vars)))))

let rule ~head ~body =
  let r = { head; body } in
  check_rule r;
  r

let make ?(goal = "goal") rules =
  List.iter check_rule rules;
  { rules; goal }

(* Datalog≠ proper: some rule body has an inequality. *)
let uses_inequality t =
  List.exists
    (fun r -> List.exists (function Neq _ -> true | Pos _ -> false) r.body)
    t.rules

let arity_of_goal t =
  List.find_map
    (fun r -> if fst r.head = t.goal then Some (List.length (snd r.head)) else None)
    t.rules

let pp_literal ppf = function
  | Pos (r, ts) ->
      Fmt.pf ppf "%s(%a)" r Fmt.(list ~sep:comma Logic.Term.pp) ts
  | Neq (s, u) -> Fmt.pf ppf "%a != %a" Logic.Term.pp s Logic.Term.pp u

let pp_rule ppf r =
  Fmt.pf ppf "%s(%a) <- %a" (fst r.head)
    Fmt.(list ~sep:comma Logic.Term.pp)
    (snd r.head)
    Fmt.(list ~sep:comma pp_literal)
    r.body

(* Π as chase rules: each Datalog≠ rule is a chase rule with a
   single-atom head and no existential variable, so the chase's
   fixpoint is the least model of Π over the EDB. *)
let chase_rules t =
  List.map
    (fun r ->
      Reasoner.Chase.rule ~name:(fst r.head) ~body:(positive_atoms r.body)
        ~neq:(List.filter_map (function Neq (s, u) -> Some (s, u) | Pos _ -> None) r.body)
        ~head:[ r.head ] ())
    t.rules

(* Goal answers D |= Π(ā), sorted. *)
let answers t edb =
  (Reasoner.Chase.run (chase_rules t) edb).instance
  |> Structure.Instance.tuples t.goal
  |> List.sort_uniq (List.compare Structure.Element.compare)

(* One line per rule: a rule is a horizontal box, so the break hints of
   its commas never split it. *)
let pp ppf t = Fmt.pf ppf "@[<v>%a@]" Fmt.(list ~sep:cut (hbox pp_rule)) t.rules
let size t = List.length t.rules
