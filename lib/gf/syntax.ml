module F = Logic.Formula
module SSet = Logic.Names.SSet

exception Not_guarded of string

let fail fmt = Fmt.kstr (fun s -> raise (Not_guarded s)) fmt

type guard =
  | Guard_atom of string * Logic.Term.t list
  | Guard_eq of Logic.Term.t * Logic.Term.t

let guard_vars = function
  | Guard_atom (_, ts) -> Logic.Term.vars ts
  | Guard_eq (s, t) -> Logic.Term.vars [ s; t ]

let guard_of_formula = function
  | F.Atom (r, ts) -> Some (Guard_atom (r, ts))
  | F.Eq (s, t) -> Some (Guard_eq (s, t))
  | _ -> None

let is_eq_guard = function Guard_eq _ -> true | Guard_atom _ -> false

(* Result of analysing an openGF / openGC2 formula. *)
type analysis = {
  depth : int;  (** nesting depth of guarded (incl. counting) quantifiers *)
  eq_nonguard : bool;  (** equality used outside guard positions *)
  counting : bool;  (** counting quantifiers used *)
  vars : SSet.t;  (** all variable names used *)
  max_arity : int;
}

let merge a b =
  {
    depth = max a.depth b.depth;
    eq_nonguard = a.eq_nonguard || b.eq_nonguard;
    counting = a.counting || b.counting;
    vars = SSet.union a.vars b.vars;
    max_arity = max a.max_arity b.max_arity;
  }

let atom_analysis vars arity =
  { depth = 0; eq_nonguard = false; counting = false; vars; max_arity = arity }

(* Check that [g] guards the quantification of [vs] over body [body]:
   every quantified variable and every free variable of the body occurs
   in the guard. *)
let check_guard g vs body =
  let gv = guard_vars g in
  let needed = SSet.union (SSet.of_list vs) (F.free_vars body) in
  if not (SSet.subset needed gv) then
    fail "guard %s does not cover variables {%s}"
      (match g with
      | Guard_atom (r, _) -> r
      | Guard_eq _ -> "=")
      (String.concat "," (SSet.elements (SSet.diff needed gv)))

(* Analyse an openGF/openGC2 formula: every subformula must be open (have
   a free variable), quantifiers must be guarded by atoms (never by
   equality). Raises [Not_guarded] otherwise. *)
let rec analyze_open f =
  if SSet.is_empty (F.free_vars f) then
    fail "subformula %s is a sentence (openGF requires open subformulas)"
      (F.to_string f);
  match f with
  | F.True | F.False -> fail "boolean constant in openGF"
  | F.Atom (_, ts) -> atom_analysis (Logic.Term.vars ts) (List.length ts)
  | F.Eq (s, t) ->
      { (atom_analysis (Logic.Term.vars [ s; t ]) 0) with eq_nonguard = true }
  | F.Not g -> analyze_open g
  | F.And (a, b) | F.Or (a, b) | F.Implies (a, b) ->
      merge (analyze_open a) (analyze_open b)
  | F.Forall (vs, F.Implies (g, body)) -> quantifier vs g body
  | F.Exists (vs, F.And (g, body)) -> quantifier vs g body
  | F.Exists (vs, (F.Atom (_, ts) as g_only)) ->
      (* ∃ȳ α(x̄,ȳ): guard with trivial body. *)
      ignore g_only;
      let a = atom_analysis (Logic.Term.vars ts) (List.length ts) in
      { a with depth = 1; vars = SSet.union a.vars (SSet.of_list vs) }
  | F.Forall _ -> fail "unguarded universal %s" (F.to_string f)
  | F.Exists _ -> fail "unguarded existential %s" (F.to_string f)
  | F.CountGeq (n, v, body) -> counting_quantifier n v body

and quantifier vs g body =
  match guard_of_formula g with
  | None -> fail "quantifier guard %s is not atomic" (F.to_string g)
  | Some (Guard_eq _) -> fail "equality used as a guard inside openGF"
  | Some guard ->
      check_guard guard vs body;
      let ga =
        match guard with
        | Guard_atom (_, ts) ->
            atom_analysis (Logic.Term.vars ts) (List.length ts)
        | Guard_eq _ -> assert false
      in
      let ba = analyze_open body in
      let m = merge ga ba in
      { m with depth = ba.depth + 1; vars = SSet.union m.vars (SSet.of_list vs) }

and counting_quantifier _n v body =
  (* openGC2: ∃≥n z1 (α(z1,z2) ∧ φ(z1,z2)) with α a binary atom. *)
  match body with
  | F.And (g, rest) -> (
      match guard_of_formula g with
      | Some (Guard_atom (r, ts)) when List.length ts = 2 ->
          check_guard (Guard_atom (r, ts)) [ v ] rest;
          let ga = atom_analysis (Logic.Term.vars ts) 2 in
          let ba = analyze_open rest in
          let m = merge ga ba in
          { m with depth = ba.depth + 1; counting = true }
      | _ -> fail "counting quantifier must be guarded by a binary atom")
  | F.Atom (_, ts) when List.length ts = 2 ->
      let ga = atom_analysis (Logic.Term.vars ts) 2 in
      { ga with depth = 1; counting = true; vars = SSet.add v ga.vars }
  | _ -> fail "counting quantifier must be guarded by a binary atom"

(* ------------------------------------------------------------------ *)
(* uGF / uGC2 sentences                                                 *)
(* ------------------------------------------------------------------ *)

type sentence_analysis = {
  outer_eq : bool;  (** the outermost guard is an equality y = y *)
  body : analysis;
}

(* A uGF sentence: ∀ȳ(α(ȳ) → φ(ȳ)) with φ openGF and α an atom or an
   equality y = y covering ȳ. We also accept the conventional shorthand
   ∀y φ for ∀y (y = y → φ). *)
let analyze_sentence f =
  match f with
  | F.Forall (vs, F.Implies (g, body)) -> (
      match guard_of_formula g with
      | None -> fail "outer guard %s is not atomic" (F.to_string g)
      | Some guard ->
          check_guard guard vs body;
          { outer_eq = is_eq_guard guard; body = analyze_open body })
  | F.Forall ([ v ], body)
    when SSet.subset (F.free_vars body) (SSet.singleton v) ->
      (* Shorthand ∀y φ(y), an equality-guarded sentence. *)
      { outer_eq = true; body = analyze_open body }
  | _ -> fail "not of the uGF sentence shape: %s" (F.to_string f)

let is_ugf_sentence f =
  match analyze_sentence f with
  | a -> (not a.body.counting)
  | exception Not_guarded _ -> false

(* Depth of a uGF sentence: the depth of its body (the outermost
   quantifier does not count). *)
let sentence_depth f = (analyze_sentence f).body.depth

(* ------------------------------------------------------------------ *)
(* Full GF recognition (guards may be equalities, sentences allowed as  *)
(* subformulas).                                                        *)
(* ------------------------------------------------------------------ *)

let rec is_gf f =
  match f with
  | F.True | F.False | F.Atom _ | F.Eq _ -> true
  | F.Not g -> is_gf g
  | F.And (a, b) | F.Or (a, b) | F.Implies (a, b) -> is_gf a && is_gf b
  | F.Forall (vs, F.Implies (g, body)) -> gf_quantifier vs g body
  | F.Exists (vs, F.And (g, body)) -> gf_quantifier vs g body
  | F.Exists ([ v ], body)
    when SSet.subset (F.free_vars body) (SSet.singleton v) ->
      (* shorthand for the equality-guarded ∃v (v = v ∧ body) *)
      is_gf body
  | F.Exists (vs, g_only) -> (
      match guard_of_formula g_only with
      | Some guard -> SSet.subset (SSet.of_list vs) (guard_vars guard)
      | None -> false)
  | F.Forall ([ v ], body)
    when SSet.subset (F.free_vars body) (SSet.singleton v) ->
      (* shorthand for the equality-guarded ∀v (v = v → body) *)
      is_gf body
  | F.Forall _ -> false
  | F.CountGeq (_, v, F.And (g, body)) -> (
      match guard_of_formula g with
      | Some (Guard_atom (_, ts)) when List.length ts = 2 ->
          SSet.subset
            (SSet.add v (F.free_vars body))
            (Logic.Term.vars ts)
          && is_gf body
      | _ -> false)
  | F.CountGeq (_, _, F.Atom (_, ts)) -> List.length ts = 2
  | F.CountGeq _ -> false

and gf_quantifier vs g body =
  match guard_of_formula g with
  | Some guard ->
      SSet.subset
        (SSet.union (SSet.of_list vs) (F.free_vars body))
        (guard_vars guard)
      && is_gf body
  | None -> false
