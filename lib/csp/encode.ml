module F = Logic.Formula
module T = Logic.Term

(* The Theorem 8 encodings: for every template A (admitting
   precoloring), an ontology O such that evaluating the OMQ
   (O, q ← N(x)) is polynomially equivalent to coCSP(A). Three variants
   realise the marker formulas φ≠a / φ=a in uGF2(1,=), uGF2(1,f) and
   ALCF` depth 2 respectively. *)

type variant =
  | Eq  (** uGF2(1,=): φ≠a(x) = ∃y (Ra(x,y) ∧ ¬ x=y) *)
  | Func  (** uGF2(1,f): F a function with ∀x F(x,x); ¬F(x,y) for ≠ *)
  | Alcfl  (** ALCF` depth 2: φ≠a(x) = ∃≥2 y Ra(x,y) *)

let color_relation a = "R_" ^ Structure.Element.to_string a

let vx = T.Var "x"
let vy = T.Var "y"

(* φ≠a(at): "at is mapped to template element a"; the witness variable
   is the other of the two variables, keeping the two-variable shape. *)
let phi_neq ?(at = "x") variant a =
  let w = if at = "x" then "y" else "x" in
  let ra = F.atom (color_relation a) [ T.Var at; T.Var w ] in
  match variant with
  | Eq -> F.Exists ([ w ], F.And (ra, F.Not (F.Eq (T.Var at, T.Var w))))
  | Func -> F.Exists ([ w ], F.And (ra, F.Not (F.atom "F" [ T.Var at; T.Var w ])))
  | Alcfl -> F.CountGeq (2, w, ra)

(* φ=a(x): the companion marker that every element satisfies, hiding the
   disjunction from positive existential queries. *)
let phi_eq variant a =
  let ra = F.atom (color_relation a) [ vx; vy ] in
  match variant with
  | Eq -> F.Exists ([ "y" ], F.And (ra, F.Eq (vx, vy)))
  | Func -> F.Exists ([ "y" ], F.And (ra, F.atom "F" [ vx; vy ]))
  | Alcfl -> F.Exists ([ "y" ], ra)

let forall_eq_x body = F.Forall ([ "x" ], F.Implies (F.Eq (vx, vx), body))

let distinct_pairs l =
  List.concat_map
    (fun a ->
      List.filter_map
        (fun b -> if Structure.Element.compare a b < 0 then Some (a, b) else None)
        l)
    l

(* The ontology of Theorem 8 for [t]; [t] should admit precoloring
   (apply {!Precolor.closure} first). *)
let ontology ?(variant = Eq) (t : Template.t) =
  let dom = Template.domain t in
  let sig_ = Template.signature t in
  (* 1. every element carries exactly one color marker *)
  let unique =
    forall_eq_x
      (F.conj2
         (F.conj
            (List.map
               (fun (a, a') ->
                 F.neg (F.conj2 (phi_neq variant a) (phi_neq variant a')))
               (distinct_pairs dom)))
         (F.disj (List.map (phi_neq variant) dom)))
  in
  (* 2. unary constraints: A(x) forbids colors a with A(a) ∉ A *)
  let unary_constraints =
    List.concat_map
      (fun (rel, arity) ->
        if arity <> 1 then []
        else
          List.filter_map
            (fun a ->
              if Structure.Instance.mem (Structure.Instance.fact rel [ a ]) t.instance
              then None
              else
                Some
                  (forall_eq_x
                     (F.implies (F.atom rel [ vx ]) (F.neg (phi_neq variant a)))))
            dom)
      (Logic.Signature.to_list sig_)
  in
  (* 3. binary constraints: R(x,y) forbids color pairs outside R^A *)
  let binary_constraints =
    List.concat_map
      (fun (rel, arity) ->
        if arity <> 2 then []
        else
          List.concat_map
            (fun a ->
              List.filter_map
                (fun a' ->
                  if
                    Structure.Instance.mem
                      (Structure.Instance.fact rel [ a; a' ])
                      t.instance
                  then None
                  else
                    Some
                      (F.Forall
                         ( [ "x"; "y" ],
                           F.Implies
                             ( F.atom rel [ vx; vy ],
                               F.neg
                                 (F.conj2
                                    (phi_neq ~at:"x" variant a)
                                    (phi_neq ~at:"y" variant a')) ) )))
                dom)
            dom)
      (Logic.Signature.to_list sig_)
  in
  (* 4. ∀x φ=a(x): makes the markers invisible to CQs *)
  let masks = List.map (fun a -> forall_eq_x (phi_eq variant a)) dom in
  let extra =
    match variant with
    | Func -> [ forall_eq_x (F.atom "F" [ vx; vx ]) ]
    | Eq | Alcfl -> []
  in
  let functional = match variant with Func -> [ "F" ] | Eq | Alcfl -> [] in
  Logic.Ontology.make ~functional
    ((unique :: unary_constraints) @ binary_constraints @ masks @ extra)

(* ------------------------------------------------------------------ *)
(* Reductions                                                           *)
(* ------------------------------------------------------------------ *)

(* D ↦ D′: realise the precoloring pins P_a(d) as Ra(d, d2) edges to
   fresh constants (forcing φ≠a at d). *)
let lift_instance (t : Template.t) d =
  let counter = ref 0 in
  List.fold_left
    (fun inst (f : Structure.Instance.fact) ->
      match f.args with
      | [ x ] ->
          let pinned =
            List.find_opt
              (fun a -> f.rel = Precolor.predicate a)
              (Template.domain t)
          in
          (match pinned with
          | Some a ->
              incr counter;
              let fresh =
                Structure.Element.Const (Printf.sprintf "pin%d" !counter)
              in
              Structure.Instance.add_fact
                (Structure.Instance.fact (color_relation a) [ x; fresh ])
                inst
          | None -> inst)
      | _ -> inst)
    d (Structure.Instance.facts d)

(* D ↦ D•: reduct to sig(A) plus precoloring facts recovered from
   non-loop Ra edges; D is consistent w.r.t. O iff D• → A. *)
let consistency_reduct (t : Template.t) d =
  let sig_ = Template.signature t in
  let keep (f : Structure.Instance.fact) = Logic.Signature.mem f.rel sig_ in
  let reduct =
    List.fold_left
      (fun inst f -> if keep f then Structure.Instance.add_fact f inst else inst)
      Structure.Instance.empty (Structure.Instance.facts d)
  in
  List.fold_left
    (fun inst (f : Structure.Instance.fact) ->
      match f.args with
      | [ x; y ] when not (Structure.Element.equal x y) ->
          let colored =
            List.find_opt
              (fun a -> f.rel = color_relation a)
              (Template.domain t)
          in
          (match colored with
          | Some a ->
              Structure.Instance.add_fact
                (Structure.Instance.fact (Precolor.predicate a) [ x ])
                inst
          | None -> inst)
      | _ -> inst)
    reduct (Structure.Instance.facts d)
