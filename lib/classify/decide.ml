module ESet = Structure.Element.Set

(* Deciding PTIME query evaluation (Theorem 13): for uGC−2(1,=) /
   ALCHIQ-depth-1 ontologies, PTIME evaluation coincides with
   materializability, which by Lemma 5 reduces to materializability of
   bouquets of outdegree ≤ |O|. We enumerate a structured family of
   bouquets plus random samples, and test each with the bounded
   materializability search. A failure is an exact coNP-hardness
   witness; success is evidence up to the enumeration and domain
   bounds. *)

type verdict =
  | Ptime_evidence of int  (** number of bouquets checked *)
  | Conp_hard of Structure.Instance.t  (** a non-materializable bouquet *)

let unary_rels o =
  List.filter_map
    (fun (r, a) -> if a = 1 then Some r else None)
    (Logic.Signature.to_list (Logic.Ontology.signature o))

let binary_rels o =
  List.filter_map
    (fun (r, a) -> if a = 2 then Some r else None)
    (Logic.Signature.to_list (Logic.Ontology.signature o))

let root = Structure.Element.Const "b0"
let child i = Structure.Element.Const (Printf.sprintf "b%d" (i + 1))

(* All subsets of a list (small lists only). *)
let rec subsets = function
  | [] -> [ [] ]
  | x :: rest ->
      let s = subsets rest in
      s @ List.map (fun ys -> x :: ys) s

(* The structured family: root labelled with one subset of unary
   relations, k children labelled with a common subset, one binary
   relation per orientation. *)
let structured_bouquets o ~max_outdegree =
  let unary = unary_rels o and binary = binary_rels o in
  let unary_subsets =
    List.filteri (fun i _ -> i < 8) (subsets unary)
  in
  List.concat_map
    (fun root_labels ->
      List.concat_map
        (fun child_labels ->
          List.concat_map
            (fun r ->
              List.concat_map
                (fun forward ->
                  List.filter_map
                    (fun k ->
                      if k = 0 && child_labels <> [] then None
                      else
                        let base =
                          List.fold_left
                            (fun i u ->
                              Structure.Instance.add_fact
                                (Structure.Instance.fact u [ root ])
                                i)
                            (Structure.Instance.add_element root
                               Structure.Instance.empty)
                            root_labels
                        in
                        let with_children =
                          List.fold_left
                            (fun i k' ->
                              let c = child k' in
                              let i =
                                Structure.Instance.add_fact
                                  (Structure.Instance.fact r
                                     (if forward then [ root; c ] else [ c; root ]))
                                  i
                              in
                              List.fold_left
                                (fun i u ->
                                  Structure.Instance.add_fact
                                    (Structure.Instance.fact u [ c ])
                                    i)
                                i child_labels)
                            base
                            (List.init k (fun k' -> k'))
                        in
                        Some with_children)
                    (List.init (max_outdegree + 1) (fun k -> k)))
                [ true; false ])
            binary)
        unary_subsets)
    unary_subsets

(* A random bouquet: mixed child labels and edge relations. *)
let random_bouquet o ~rng ~max_outdegree =
  let unary = unary_rels o and binary = binary_rels o in
  let pick_labels i e =
    List.fold_left
      (fun i u ->
        if Random.State.bool rng then
          Structure.Instance.add_fact (Structure.Instance.fact u [ e ]) i
        else i)
      i unary
  in
  let i = pick_labels (Structure.Instance.add_element root Structure.Instance.empty) root in
  let k = Random.State.int rng (max_outdegree + 1) in
  List.fold_left
    (fun i k' ->
      let c = child k' in
      let i = pick_labels i c in
      match binary with
      | [] -> i
      | _ ->
          let r = List.nth binary (Random.State.int rng (List.length binary)) in
          let args = if Random.State.bool rng then [ root; c ] else [ c; root ] in
          Structure.Instance.add_fact (Structure.Instance.fact r args) i)
    i
    (List.init k (fun k' -> k'))

(* Decide PTIME query evaluation by bouquet materializability. A
   bouquet that fails at the base bounds is re-checked at [verify_extra]
   larger bounds before being reported: small domains can make
   disjunctions spuriously certain (witnesses of existential axioms run
   out of fresh elements), and the re-check filters such artifacts. *)
let decide ?(budget = Reasoner.Budget.unlimited) ?(on_checked = ignore)
    ?(seed = 11) ?(max_outdegree = 5) ?(samples = 20) ?(max_model_extra = 1)
    ?(max_extra = 1) ?(verify_extra = 4) o =
  let rng = Random.State.make [| seed |] in
  let candidates =
    structured_bouquets o ~max_outdegree
    @ List.init samples (fun _ -> random_bouquet o ~rng ~max_outdegree)
  in
  (* smallest bouquets first: cheaper and witnesses are minimal *)
  let candidates =
    List.sort
      (fun a b ->
        compare
          (Structure.Instance.domain_size a, Structure.Instance.cardinal a)
          (Structure.Instance.domain_size b, Structure.Instance.cardinal b))
      candidates
  in
  (* One engine per bouquet, shared by the consistency check and both
     materializability checks: each grounds at most once per larger
     ceiling, and the smaller ceilings answer on the larger grounding. *)
  let non_materializable b =
    let eng = Reasoner.Engine.create o b in
    Reasoner.Engine.is_consistent ~budget ~max_extra eng
    && (not
          (Material.Materializability.materializable_on ~budget
             ~max_model_extra ~max_extra eng))
    && not
         (Material.Materializability.materializable_on ~budget
            ~max_model_extra:(max_model_extra + verify_extra)
            ~max_extra:(max_extra + verify_extra) eng)
  in
  Obs.Trace.with_span
    ~attrs:[ ("candidates", Obs.Trace.Int (List.length candidates)) ]
    "classify.decide"
  @@ fun () ->
  let rec go checked = function
    | [] ->
        if Obs.Trace.enabled () then
          Obs.Trace.add_attr "checked" (Obs.Trace.Int checked);
        Ptime_evidence checked
    | b :: rest ->
        (* one checkpoint per bouquet: verdicts on checked bouquets are
           final, so a trip here loses only the unchecked tail *)
        Reasoner.Budget.checkpoint budget;
        let hard =
          Obs.Trace.with_span
            ~attrs:
              [
                ("bouquet", Obs.Trace.Int checked);
                ( "domain",
                  Obs.Trace.Int (Structure.Instance.domain_size b) );
              ]
            "classify.bouquet"
            (fun () ->
              let hard = non_materializable b in
              if Obs.Trace.enabled () then
                Obs.Trace.add_attr "conp_witness" (Obs.Trace.Bool hard);
              hard)
        in
        if hard then begin
          if Obs.Trace.enabled () then
            Obs.Trace.add_attr "checked" (Obs.Trace.Int checked);
          Conp_hard b
        end
        else begin
          on_checked (checked + 1);
          go (checked + 1) rest
        end
  in
  go 0 candidates

(* Typed form: on a trip the partial payload is the number of bouquets
   fully checked (all of them PTIME evidence so far). *)
let try_decide budget ?seed ?max_outdegree ?samples ?max_model_extra ?max_extra
    ?verify_extra o =
  let checked = ref 0 in
  Reasoner.Budget.protect budget
    ~partial:(fun () -> !checked)
    (fun () ->
      decide ~budget
        ~on_checked:(fun n -> checked := n)
        ?seed ?max_outdegree ?samples ?max_model_extra ?max_extra ?verify_extra
        o)
