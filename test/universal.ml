(* The test oracle for hom-universal models (Section 3, Lemma 2): a
   model of O and D that maps homomorphically into every model of O and
   D preserving dom(D).
   In uGC2(=) their existence coincides with materializability; the
   paper's uGF(2) wheel ontology separates the notions. Here both sides
   are checked over the enumerated bounded models, so verdicts are
   relative to the domain bound and enumeration limit. *)

let preserving_hom ~source ~target d =
  let fixed =
    Structure.Element.Set.fold
      (fun e m -> Structure.Element.Map.add e e m)
      (Structure.Element.Set.inter
         (Structure.Instance.domain d)
         (Structure.Instance.domain target))
      Structure.Element.Map.empty
  in
  Structure.Homomorphism.exists ~fixed ~source ~target ()

(* Some model among the bounded models of O and D maps into every
   enumerated model (preserving dom(D)). *)
let admits_hom_universal ~extra ~limit o d =
  let models = Reasoner.Ground.enumerate ~limit (Reasoner.Problem.build ~extra o d) in
  List.exists
    (fun b -> List.for_all (fun a -> preserving_hom ~source:b ~target:a d) models)
    models
