(* Hom-universal models (Section 3, Lemma 2): a model of O and D that
   maps homomorphically into every model of O and D preserving dom(D).
   In uGC2(=) their existence coincides with materializability; the
   paper's uGF(2) wheel ontology separates the notions. Here both sides
   are checked over the enumerated bounded models, so verdicts are
   relative to the domain bound and enumeration limit. *)

let preserving_hom ~source ~target d =
  let fixed =
    Structure.Homomorphism.fixed_identity
      (Structure.Element.Set.inter
         (Structure.Instance.domain d)
         (Structure.Instance.domain target))
  in
  Structure.Homomorphism.exists ~fixed ~source ~target ()

(* A model among the bounded models of O and D that maps into every
   other enumerated model (preserving dom(D)), if one exists. *)
let find_hom_universal ?(extra = 1) ?(limit = 200) o d =
  let models = Reasoner.Ground.enumerate ~limit (Reasoner.Problem.build ~extra o d) in
  List.find_opt
    (fun b ->
      List.for_all (fun a -> preserving_hom ~source:b ~target:a d) models)
    models

(* Is some enumerated bounded model hom-universal among them? *)
let admits_hom_universal ?extra ?limit o d =
  Option.is_some (find_hom_universal ?extra ?limit o d)
