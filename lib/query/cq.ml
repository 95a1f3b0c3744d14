module SSet = Logic.Names.SSet
module SMap = Logic.Names.SMap
module ESet = Structure.Element.Set
module EMap = Structure.Element.Map

type atom = string * Logic.Term.t list

type t = {
  name : string;
  answer : string list;
  atoms : atom list;
}

exception Ill_formed of string

let make ?(name = "q") ~answer atoms =
  let q = { name; answer; atoms } in
  let atom_vars =
    List.fold_left
      (fun acc (_, ts) -> SSet.union acc (Logic.Term.vars ts))
      SSet.empty atoms
  in
  List.iter
    (fun x ->
      if not (SSet.mem x atom_vars) then
        raise
          (Ill_formed
             (Printf.sprintf "answer variable %s does not occur in an atom" x)))
    answer;
  q

let arity q = List.length q.answer
let is_boolean q = q.answer = []

let variables q =
  List.fold_left
    (fun acc (_, ts) -> SSet.union acc (Logic.Term.vars ts))
    SSet.empty q.atoms

let existential_variables q = SSet.diff (variables q) (SSet.of_list q.answer)

let signature q =
  List.fold_left
    (fun s (r, ts) -> Logic.Signature.add r (List.length ts) s)
    Logic.Signature.empty q.atoms

(* ------------------------------------------------------------------ *)
(* Canonical database                                                   *)
(* ------------------------------------------------------------------ *)

(* The canonical database D_q: each variable y becomes the constant a_y
   (written "?y"); constants stay themselves. *)
let var_element v = Structure.Element.Const ("?" ^ v)

let term_element = function
  | Logic.Term.Var v -> var_element v
  | Logic.Term.Const c -> Structure.Element.Const c

let canonical_db q =
  List.fold_left
    (fun inst (r, ts) ->
      Structure.Instance.add_fact
        (Structure.Instance.fact r (List.map term_element ts))
        inst)
    Structure.Instance.empty q.atoms

(* ------------------------------------------------------------------ *)
(* Evaluation                                                           *)
(* ------------------------------------------------------------------ *)

(* Constants in the query denote themselves (standard names). *)
let constant_fixing q =
  List.fold_left
    (fun m (_, ts) ->
      List.fold_left
        (fun m t ->
          match t with
          | Logic.Term.Const c ->
              let e = Structure.Element.Const c in
              EMap.add e e m
          | Logic.Term.Var _ -> m)
        m ts)
    EMap.empty q.atoms

(* A tuple ā is an answer iff there is a homomorphism from D_q to the
   interpretation mapping the answer constants to ā — a solution of the
   body with the answer variables pre-bound to ā. *)
let holds inst q tuple =
  if List.length tuple <> arity q then
    invalid_arg "Cq.holds: tuple arity mismatch";
  if SSet.is_empty (existential_variables q) then
    (* No existential variables: the candidate homomorphism is fully
       determined by the tuple (every atom variable is an answer variable
       — [make] guarantees the converse occurrence), so evaluation is
       plain fact membership, skipping planning and search. *)
    let fixed =
      List.fold_left2
        (fun m x e -> EMap.add (var_element x) e m)
        (constant_fixing q) q.answer tuple
    in
    List.for_all
      (fun (r, ts) ->
        let args = List.map (fun t -> EMap.find (term_element t) fixed) ts in
        Structure.Instance.mem (Structure.Instance.fact r args) inst)
      q.atoms
  else
    Structure.Eval.fold_body inst
      ~bound:(List.combine q.answer tuple)
      (Structure.Eval.compile q.atoms)
      (fun _ _ -> (true, true))
      false

let holds_boolean inst q = holds inst q []

(* All answers over the domain of [inst], duplicate-free and sorted —
   the order does not depend on the plan the evaluator chose. *)
let answers inst q =
  let body = Structure.Eval.compile q.atoms in
  let ans_ix = List.map (fun x -> SMap.find x body.var_ix) q.answer in
  let seen = Hashtbl.create 16 in
  Structure.Eval.fold_body inst body
    (fun sol acc ->
      let tuple = List.map (fun i -> sol.(i)) ans_ix in
      if Hashtbl.mem seen tuple then (false, acc)
      else begin
        Hashtbl.replace seen tuple ();
        (false, tuple :: acc)
      end)
    []
  |> List.sort (List.compare Structure.Element.compare)

(* The chosen join plan for [q]'s body over [inst], as JSON. *)
let explain inst q =
  let body = Structure.Eval.compile q.atoms in
  let idx = Structure.Relindex.of_instance inst in
  let plan = Structure.Eval.make_plan idx body.body_atoms in
  let vars = Array.make (SMap.cardinal body.var_ix) "" in
  SMap.iter (fun v i -> vars.(i) <- v) body.var_ix;
  Obs.Json.obj
    [
      ("query", Obs.Json.escape q.name);
      ("vars", Obs.Json.arr (Array.to_list (Array.map Obs.Json.escape vars)));
      ("plan", Structure.Eval.explain_json plan);
    ]

(* ------------------------------------------------------------------ *)
(* Shape analysis                                                       *)
(* ------------------------------------------------------------------ *)

let is_connected q =
  Structure.Gaifman.is_connected
    (Structure.Gaifman.of_instance (canonical_db q))

(* Rooted acyclic queries (Section 2.2): non-Boolean, and D_q has a
   cg-tree decomposition rooted at a bag whose domain is exactly the set
   of answer variables. *)
let is_raq q =
  (not (is_boolean q))
  &&
  let db = canonical_db q in
  let root = ESet.of_list (List.map var_element q.answer) in
  Structure.Treedec.is_rooted_decomposable db ~root

(* ------------------------------------------------------------------ *)
(* Conversions                                                          *)
(* ------------------------------------------------------------------ *)

(* The CQ as an FO formula with free variables = answer variables. *)
let to_formula q =
  let body =
    Logic.Formula.conj
      (List.map (fun (r, ts) -> Logic.Formula.Atom (r, ts)) q.atoms)
  in
  Logic.Formula.exists (SSet.elements (existential_variables q)) body

let pp ppf q =
  Fmt.pf ppf "%s(%a) <- %a" q.name
    Fmt.(list ~sep:comma string)
    q.answer
    Fmt.(
      list ~sep:comma (fun ppf (r, ts) ->
          Fmt.pf ppf "%s(%a)" r (list ~sep:comma Logic.Term.pp) ts))
    q.atoms

let to_string q = Fmt.str "%a" pp q
let compare = Stdlib.compare
let equal a b = compare a b = 0

(* Rename apart: prefix all variables, for combining queries. *)
let rename_vars prefix q =
  let rn = function
    | Logic.Term.Var v -> Logic.Term.Var (prefix ^ v)
    | t -> t
  in
  {
    q with
    answer = List.map (fun v -> prefix ^ v) q.answer;
    atoms = List.map (fun (r, ts) -> (r, List.map rn ts)) q.atoms;
  }
