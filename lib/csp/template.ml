module ESet = Structure.Element.Set

(* CSP templates (Section 6): finite structures A with relations of
   arity at most two; CSP(A) asks for a homomorphism D → A. *)

type t = {
  name : string;
  instance : Structure.Instance.t;
}

let domain t = Structure.Instance.domain_list t.instance
let signature t = Structure.Instance.signature t.instance

(* K_n with the edge relation "E": the template of n-colourability. *)
let k_colouring n =
  let vertices = List.init n (fun i -> Structure.Element.Const (Printf.sprintf "col%d" i)) in
  let facts =
    List.concat_map
      (fun a ->
        List.filter_map
          (fun b ->
            if Structure.Element.equal a b then None
            else Some (Structure.Instance.fact "E" [ a; b ]))
          vertices)
      vertices
  in
  { name = Printf.sprintf "K%d" n; instance = Structure.Instance.of_facts facts }
