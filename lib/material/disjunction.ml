(* The disjunction property (Theorem 17): O has the Q-disjunction
   property iff whenever O,D |= q1(ā1) ∨ … ∨ qn(ān), some disjunct is
   already certain. Failure witnesses non-materializability. *)

type pointed = Query.Cq.t * Structure.Element.t list

type witness = {
  instance : Structure.Instance.t;
  pointed : pointed list;
}

(* Check one candidate disjunction: [`Fails w] means the disjunction is
   certain but no disjunct is — the disjunction property fails. *)
let check ?budget ?max_extra o d pointed =
  Obs.Trace.with_span
    ~attrs:[ ("disjuncts", Obs.Trace.Int (List.length pointed)) ]
    "material.disjunction_check"
  @@ fun () ->
  if
    not (Reasoner.Engine.certain_disjunction_upto ?budget ?max_extra o d pointed)
  then `Disjunction_not_certain
  else
    match
      List.find_opt
        (fun (q, t) -> Reasoner.Engine.certain_cq_upto ?budget ?max_extra o d q t)
        pointed
    with
    | Some _ -> `Holds
    | None -> `Fails { instance = d; pointed }

(* Search a list of candidate (instance, disjunction) pairs for a
   violation. *)
let find_violation ?budget ?max_extra o candidates =
  List.find_map
    (fun (d, pointed) ->
      if not (Reasoner.Engine.is_consistent_upto ?budget ?max_extra o d) then None
      else
        match check ?budget ?max_extra o d pointed with
        | `Fails w -> Some w
        | `Holds | `Disjunction_not_certain -> None)
    candidates

(* Default candidate disjunctions over an instance: for every element,
   the unary atoms of the ontology's signature, pairwise. *)
let default_candidates o d =
  let unary =
    List.filter_map
      (fun (r, a) -> if a = 1 then Some r else None)
      (Logic.Signature.to_list (Logic.Ontology.signature o))
  in
  let atoms_for e =
    List.map (fun r -> (Query.Raq.unary ~name:("q_" ^ r) r, [ e ])) unary
  in
  let elements = Structure.Instance.domain_list d in
  (* pairwise disjunctions per element, plus per-relation disjunctions
     across all elements *)
  let per_element =
    List.concat_map
      (fun e ->
        let atoms = atoms_for e in
        List.concat_map
          (fun (q1, t1) ->
            List.filter_map
              (fun (q2, t2) ->
                if Query.Cq.compare q1 q2 < 0 then
                  Some (d, [ (q1, t1); (q2, t2) ])
                else None)
              atoms)
          atoms)
      elements
  in
  let across =
    List.map
      (fun r ->
        let q = Query.Raq.unary ~name:("q_" ^ r) r in
        (d, List.map (fun e -> (q, [ e ])) elements))
      unary
  in
  per_element @ across
