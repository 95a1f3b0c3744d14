module SSet = Logic.Names.SSet

(* A fragment descriptor in the naming scheme of Figure 1:
   uGF[−][2](depth[, =][, f]) and uGC[−]2(depth[, =]). *)
type t = {
  counting : bool;  (** uGC2 rather than uGF *)
  two_var : bool;  (** subscript ·2 *)
  outer_eq : bool;  (** superscript ·− : outer guards are equalities *)
  depth : int;
  equality : bool;  (** (=): equality in non-guard positions *)
  functions : bool;  (** (f): partial function declarations *)
}

let make ?(counting = false) ?(two_var = false) ?(outer_eq = false)
    ?(equality = false) ?(functions = false) depth =
  { counting; two_var; outer_eq; depth; equality; functions }

let name t =
  let base = if t.counting then "uGC" else "uGF" in
  let minus = if t.outer_eq then "-" else "" in
  let two = if t.two_var || t.counting then "2" else "" in
  let feats =
    [ string_of_int t.depth ]
    @ (if t.equality then [ "=" ] else [])
    @ if t.functions then [ "f" ] else []
  in
  Printf.sprintf "%s%s%s(%s)" base minus two (String.concat "," feats)

(* [subsumes big small]: every [small]-ontology is a [big]-ontology. *)
let subsumes big small =
  (big.counting || not small.counting)
  && ((not big.two_var) || small.two_var)
  && ((not big.outer_eq) || small.outer_eq)
  && big.depth >= small.depth
  && (big.equality || not small.equality)
  && (big.functions || not small.functions)

(* The minimal descriptor of an ontology, or [None] when a sentence is
   outside uGF/uGC2. *)
let of_ontology (o : Logic.Ontology.t) =
  let sig_ = Logic.Signature.of_formulas (Logic.Ontology.sentences o) in
  let max_arity = Logic.Signature.max_arity sig_ in
  try
    let analyses = List.map Syntax.analyze_sentence (Logic.Ontology.sentences o) in
    let fold (acc : t) (a : Syntax.sentence_analysis) =
      {
        acc with
        counting = acc.counting || a.body.counting;
        outer_eq = acc.outer_eq && a.outer_eq;
        depth = max acc.depth a.body.depth;
        equality = acc.equality || a.body.eq_nonguard;
        two_var =
          acc.two_var && SSet.cardinal a.body.vars <= 2 && max_arity <= 2;
      }
    in
    let init =
      {
        counting = false;
        two_var = true;
        outer_eq = true;
        depth = 0;
        equality = false;
        functions = Logic.Ontology.functional o <> [];
      }
    in
    let d = List.fold_left fold init analyses in
    (* Functions and counting require the two-variable fragment. *)
    if (d.functions || d.counting) && not d.two_var then None else Some d
  with Syntax.Not_guarded _ -> None
