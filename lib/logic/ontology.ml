type t = {
  sentences : Formula.t list;
  functional : string list;
}

let make ?(functional = []) sentences = { sentences; functional }
let sentences t = t.sentences
let functional t = t.functional

(* The FO axiom ∀x y1 y2 (R(x,y1) ∧ R(x,y2) → y1 = y2). *)
let functionality_axiom r =
  let x = Term.Var "x" and y1 = Term.Var "y1" and y2 = Term.Var "y2" in
  Formula.Forall
    ( [ "x"; "y1"; "y2" ],
      Formula.Implies
        ( Formula.And (Formula.Atom (r, [ x; y1 ]), Formula.Atom (r, [ x; y2 ])),
          Formula.Eq (y1, y2) ) )

(* All sentences including the expanded functionality axioms. *)
let all_sentences t =
  t.sentences @ List.map functionality_axiom t.functional

let signature t = Signature.of_formulas (all_sentences t)

let union a b =
  {
    sentences = a.sentences @ b.sentences;
    functional = List.sort_uniq String.compare (a.functional @ b.functional);
  }
