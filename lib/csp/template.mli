(** CSP templates (Section 6): finite structures with relations of arity
    at most two. CSP(A) asks whether an input instance maps
    homomorphically into A. *)

type t = {
  name : string;
  instance : Structure.Instance.t;
}

val domain : t -> Structure.Element.t list
val signature : t -> Logic.Signature.t

(** K{_n}: the n-colourability template (NP-hard for n ≥ 3, PTIME for
    n ≤ 2). *)
val k_colouring : int -> t
