module SMap = Logic.Names.SMap

(* The one-shot reference for certain answers over arbitrary FO(=,
   counting) ontologies: search for models of O and D whose domain is
   dom(D) plus [extra] fresh labelled nulls, grounding a fresh problem
   and solving it with a fresh solver for every tuple and every bound.
   Sound and complete for refuting entailments (a countermodel is a
   countermodel); complete for establishing them only up to the domain
   bound.

   Library code answers on the incremental Engine; this module stays as
   the independent oracle the test suites, examples and bench compare
   it against. Its independence lies in the grounding (queries enter as
   asserted negations, not reified literals) and the solving (a fresh
   solver per problem, no assumptions, no witness cache). *)

let answer_env (q : Query.Cq.t) tuple =
  List.fold_left2
    (fun env v e -> SMap.add v e env)
    SMap.empty q.Query.Cq.answer tuple

(* A model of O and D over dom(D) + [extra] nulls refuting every
   (formula, assignment) pair, if any. *)
let refute ~extra o d negated =
  let sig_q =
    List.fold_left
      (fun s (f, _) -> Logic.Signature.union s (Logic.Signature.of_formula f))
      Logic.Signature.empty negated
  in
  let g = Problem.build ~extra_signature:sig_q ~extra o d in
  List.iter (fun (f, env) -> Ground.assert_negation ~env g f) negated;
  Ground.solve g

let negated_pointed pointed =
  List.map (fun (cq, tuple) -> (Query.Cq.to_formula cq, answer_env cq tuple)) pointed

let is_consistent ?max_extra o d =
  Option.is_some (Problem.deepen ?max_extra (fun extra -> refute ~extra o d []))

(* A countermodel to O,D |= q(ā) with [extra] fresh nulls, if any. *)
let countermodel ?(extra = 0) o d (q : Query.Ucq.t) tuple =
  if List.length tuple <> Query.Ucq.arity q then
    invalid_arg "Bounded.countermodel: tuple arity mismatch";
  refute ~extra o d
    (negated_pointed (List.map (fun cq -> (cq, tuple)) (Query.Ucq.disjuncts q)))

(* O,D |= q(ā), up to [max_extra] additional domain elements: no
   countermodel at any bound 0..max_extra. *)
let certain_ucq ?max_extra o d q tuple =
  Option.is_none
    (Problem.deepen ?max_extra (fun extra -> countermodel ~extra o d q tuple))

let certain_cq ?max_extra o d q tuple =
  certain_ucq ?max_extra o d (Query.Ucq.of_cq q) tuple

(* Certain truth of an arbitrary FO(=, counting) formula under an
   assignment: no bounded model of O and D refutes it. Used for
   non-query conditions such as the (=1 P) markers of Section 7. *)
let certain_formula ?max_extra ?(env = SMap.empty) o d f =
  Option.is_none
    (Problem.deepen ?max_extra (fun extra -> refute ~extra o d [ (f, env) ]))

(* Certain disjunction: O,D |= q1(ā1) ∨ … ∨ qn(ān) for *pointed* queries
   (used for the disjunction property, Theorem 17). *)
let certain_disjunction ?max_extra o d pointed =
  let negated = negated_pointed pointed in
  Option.is_none
    (Problem.deepen ?max_extra (fun extra -> refute ~extra o d negated))
