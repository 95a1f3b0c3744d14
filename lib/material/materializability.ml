(* Bounded materializability testing (Definition 2): search for a model
   B of O and D whose answers to a pool of pointed queries coincide with
   the certain answers. Completeness is relative to the domain bound and
   the query pool; the pools below cover the paper's examples. *)

type pointed = Query.Cq.t * Structure.Element.t list

(* A default pool: atomic unary and binary queries plus one-step
   existential neighbourhood queries over the ontology's signature,
   pointed at all (pairs of) elements of D. *)
let default_pool o d =
  let sig_ = Logic.Ontology.signature o in
  let elements = Structure.Instance.domain_list d in
  let unary =
    List.filter_map (fun (r, a) -> if a = 1 then Some r else None)
      (Logic.Signature.to_list sig_)
  and binary =
    List.filter_map (fun (r, a) -> if a = 2 then Some r else None)
      (Logic.Signature.to_list sig_)
  in
  let unary_queries =
    List.concat_map
      (fun r ->
        let q = Query.Raq.unary ~name:("q_" ^ r) r in
        List.map (fun e -> (q, [ e ])) elements)
      unary
  in
  let binary_queries =
    List.concat_map
      (fun r ->
        let q = Query.Raq.atom_query ~name:("q_" ^ r) r 2 in
        List.concat_map
          (fun e1 -> List.map (fun e2 -> (q, [ e1; e2 ])) elements)
          elements)
      binary
  in
  let exists_queries =
    List.concat_map
      (fun r ->
        let plain =
          Query.Cq.make ~name:("qe_" ^ r) ~answer:[ "x" ]
            [ (r, [ Logic.Term.Var "x"; Logic.Term.Var "y" ]) ]
        in
        let with_a =
          List.map
            (fun a ->
              Query.Cq.make
                ~name:("qe_" ^ r ^ "_" ^ a)
                ~answer:[ "x" ]
                [
                  (r, [ Logic.Term.Var "x"; Logic.Term.Var "y" ]);
                  (a, [ Logic.Term.Var "y" ]);
                ])
            unary
        in
        List.concat_map
          (fun q -> List.map (fun e -> (q, [ e ])) elements)
          (plain :: with_a))
      binary
  in
  unary_queries @ binary_queries @ exists_queries

(* The certain answers of the pool, computed once on the engine of
   (O, D): one grounding for every countermodel bound, shared by every pointed
   query in the pool (the pool is quadratic in dom(D), so this is the
   hot path of the materializability search). *)
let pool_certainty ?budget ?max_extra eng pool =
  Obs.Trace.with_span
    ~attrs:[ ("pool", Obs.Trace.Int (List.length pool)) ]
    "material.pool_certainty"
  @@ fun () ->
  List.map
    (fun (q, tuple) ->
      (q, tuple, Reasoner.Engine.certain_cq ?budget ?max_extra eng q tuple))
    pool

let answers_like_certainty certainty b =
  List.for_all
    (fun (q, tuple, certain) -> Bool.equal (Query.Cq.holds b q tuple) certain)
    certainty

(* Does B answer the pool exactly like the certain answers? *)
let is_materialization_for ?budget ?max_extra eng pool b =
  Structure.Instance.subset (Reasoner.Engine.instance eng) b
  && Structure.Modelcheck.is_model b
       (Logic.Ontology.all_sentences (Reasoner.Engine.ontology eng))
  && answers_like_certainty (pool_certainty ?budget ?max_extra eng pool) b

(* Search for a materialization over the bounded domain. The certain
   answers of the pool are computed once; then one engine model query
   per domain size asks for a model of O and D that satisfies exactly
   the certain pool queries (each reified pool query assumed positively
   when certain, negatively when not) — on the same bounds the
   certainty labels came from. [max_model_extra] bounds the
   materialization's fresh nulls, [max_extra] the countermodel search
   behind the certainty labels. *)
let find_materialization ?budget ?max_model_extra ?max_extra ?pool eng =
  Obs.Trace.with_span "material.find_materialization" @@ fun () ->
  let pool =
    match pool with
    | Some p -> p
    | None ->
        default_pool (Reasoner.Engine.ontology eng) (Reasoner.Engine.instance eng)
  in
  let certainty = pool_certainty ?budget ?max_extra eng pool in
  Reasoner.Engine.signed_model ?budget ?max_extra:max_model_extra eng certainty

(* Materializable for an instance: consistent implies a materialization
   exists (within the bounds). *)
let materializable_on ?budget ?max_model_extra ?max_extra ?pool eng =
  Obs.Trace.with_span "material.materializable_on" @@ fun () ->
  let r =
    (not (Reasoner.Engine.is_consistent ?budget ?max_extra eng))
    || Option.is_some
         (find_materialization ?budget ?max_model_extra ?max_extra ?pool eng)
  in
  if Obs.Trace.enabled () then
    Obs.Trace.add_attr "materializable" (Obs.Trace.Bool r);
  r
