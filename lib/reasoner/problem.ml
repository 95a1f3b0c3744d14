(* The shared grounding problem: both the one-shot bounded model finder
   (Bounded) and the incremental engine (Engine) search models of (O, D)
   over dom(D) plus [extra] fresh labelled nulls. This module is the
   single place that sets up that domain and walks the domain bounds,
   and it builds Bounded's per-bound groundings (the engine builds its
   one grounding itself, with activity literals). *)

let default_max_extra = 2

(* Iterative deepening over the domain bound: GF and GC2 have the finite
   model property, so searching dom(D) plus 0, 1, 2, ... fresh nulls in
   order converges. [at k] is the search at bound k; the first decisive
   ([Some]) answer ends the walk, so deeper bounds are never grounded
   once a shallower one decides. *)
let deepen ?(max_extra = default_max_extra) at =
  let rec go k =
    if k > max_extra then None
    else match at k with Some _ as r -> r | None -> go (k + 1)
  in
  go 0

let domain ~extra d =
  let nulls = Structure.Instance.fresh_nulls extra d in
  let dom = Structure.Instance.domain_list d @ nulls in
  (* Interpretations are non-empty. *)
  if dom = [] then [ Structure.Element.Const "e0" ] else dom

let signature ?(extra_signature = Logic.Signature.empty) o d =
  Logic.Signature.union
    (Logic.Ontology.signature o)
    (Logic.Signature.union (Structure.Instance.signature d) extra_signature)

let build ?budget ?extra_signature ~extra o d =
  Obs.Trace.with_span ~attrs:[ ("extra", Obs.Trace.Int extra) ] "ground.build"
  @@ fun () ->
  let dom = domain ~extra d in
  let g =
    Ground.create ?budget ~domain:dom
      ~signature:(signature ?extra_signature o d)
      ()
  in
  Ground.assert_instance g d;
  List.iter (Ground.assert_formula g) (Logic.Ontology.all_sentences o);
  if Obs.Trace.enabled () then begin
    Obs.Trace.add_attr "domain" (Obs.Trace.Int (List.length dom));
    Obs.Trace.add_attr "vars" (Obs.Trace.Int (Ground.nvars g))
  end;
  g
