module SMap = Logic.Names.SMap

(* The Theorem 3 reduction: if O is not materializable — witnessed by an
   instance D0 and two pointed unary CQs q1@a1, q2@a2 whose disjunction
   is certain while neither disjunct is — then 2+2-UNSAT reduces to
   query evaluation w.r.t. O. One fresh copy of D0 per propositional
   variable encodes its truth value ("true" = q1 holds); the query, a
   UCQ with one disjunct per clause, detects a falsified clause. Since O
   is invariant under disjoint unions, gadget copies do not interact.

   Compared to the paper we use a UCQ with constants rather than one
   rAQ wired through fresh relations; by Theorem 4 the complexity of
   rAQ-, CQ- and UCQ-evaluation w.r.t. such O coincide. *)

type witness = {
  base : Structure.Instance.t;
  q1 : Query.Cq.t;  (** unary *)
  a1 : Structure.Element.t;
  q2 : Query.Cq.t;  (** unary *)
  a2 : Structure.Element.t;
}

exception Bad_witness of string

let check_witness w =
  if Query.Cq.arity w.q1 <> 1 || Query.Cq.arity w.q2 <> 1 then
    raise (Bad_witness "witness queries must be unary")

(* Rename a copy of the base gadget for variable [p]. *)
let copy_prefix p = p ^ "$"

let rename_element p = function
  | Structure.Element.Const c -> Structure.Element.Const (copy_prefix p ^ c)
  | Structure.Element.Null _ as e -> e

let gadget w p = Structure.Instance.map_elements (rename_element p) w.base

(* The instance D_φ: one gadget per variable of φ. *)
let instance w (f : Twotwosat.t) =
  check_witness w;
  Logic.Names.SSet.fold
    (fun p acc -> Structure.Instance.union acc (gadget w p))
    (Twotwosat.variables f)
    Structure.Instance.empty

(* Inline a unary pointed query at a concrete element: existential
   variables renamed apart by [tag], the answer variable replaced by the
   element's constant name. *)
let inline_at tag (q : Query.Cq.t) (target : Structure.Element.t) =
  let answer = match q.Query.Cq.answer with [ x ] -> x | _ -> assert false in
  let target_const =
    match target with
    | Structure.Element.Const c -> Logic.Term.Const c
    | Structure.Element.Null _ ->
        raise (Bad_witness "witness tuple must consist of constants")
  in
  List.map
    (fun (r, ts) ->
      ( r,
        List.map
          (function
            | Logic.Term.Var x when x = answer -> target_const
            | Logic.Term.Var x -> Logic.Term.Var (tag ^ x)
            | Logic.Term.Const _ as t -> t)
          ts ))
    q.Query.Cq.atoms

(* The disjunct detecting that clause [cl] is falsified: the truth value
   of p is "q1 holds (at the copy of a1) in D_p", and in every model of
   a gadget at least one of q1, q2 holds; so "p false" is witnessed by
   q2 and "n true" by q1. Constant literals simplify: a constantly-true
   literal makes the clause unfalsifiable (no disjunct); a
   constantly-false literal drops out of the conjunction. *)
let clause_disjunct w idx (cl : Twotwosat.clause) =
  let parts = ref [] in
  let falsifiable = ref true in
  (* positive literal: falsified when q2 holds at a2's copy *)
  let positive tag = function
    | Twotwosat.Truth true -> falsifiable := false
    | Twotwosat.Truth false -> ()
    | Twotwosat.Var p ->
        parts := !parts @ inline_at tag w.q2 (rename_element p w.a2)
  in
  (* negative literal ¬n: falsified when q1 holds at a1's copy *)
  let negative tag = function
    | Twotwosat.Truth false -> falsifiable := false
    | Twotwosat.Truth true -> ()
    | Twotwosat.Var p ->
        parts := !parts @ inline_at tag w.q1 (rename_element p w.a1)
  in
  positive (Printf.sprintf "c%dp1_" idx) cl.Twotwosat.p1;
  positive (Printf.sprintf "c%dp2_" idx) cl.Twotwosat.p2;
  negative (Printf.sprintf "c%dn1_" idx) cl.Twotwosat.n1;
  negative (Printf.sprintf "c%dn2_" idx) cl.Twotwosat.n2;
  if !falsifiable then
    Some (Query.Cq.make ~name:(Printf.sprintf "cl%d" idx) ~answer:[] !parts)
  else None

let query w (f : Twotwosat.t) =
  check_witness w;
  let disjuncts = List.filteri (fun _ _ -> true) f in
  let qs =
    List.mapi (fun i cl -> clause_disjunct w i cl) disjuncts
    |> List.filter_map Fun.id
  in
  match qs with
  | [] -> None (* no falsifiable clause: φ is trivially satisfiable *)
  | _ -> Some (Query.Ucq.make ~name:"q_phi" qs)

(* End-to-end: φ is unsatisfiable iff O, D_φ ⊨ q_φ. *)
let unsat_iff_certain ?(max_extra = 1) o w f =
  match query w f with
  | None -> (not (Twotwosat.satisfiable f), false)
  | Some q ->
      let d = instance w f in
      let certain = Reasoner.Engine.certain_ucq_upto ~max_extra o d q [] in
      (not (Twotwosat.satisfiable f), certain)
