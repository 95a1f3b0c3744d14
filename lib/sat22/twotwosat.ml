(* 2+2-SAT (Schaerf 1993): clauses with exactly two positive and two
   negative literals over propositional variables and the truth
   constants. NP-complete; the source problem of the coNP-hardness
   reduction of Theorem 3. *)

type literal =
  | Var of string
  | Truth of bool  (** the constants true / false *)

type clause = {
  p1 : literal;
  p2 : literal;  (** positive literals *)
  n1 : literal;
  n2 : literal;  (** negated literals *)
}

type t = clause list

let clause p1 p2 n1 n2 = { p1; p2; n1; n2 }

let variables f =
  List.fold_left
    (fun acc cl ->
      List.fold_left
        (fun acc l ->
          match l with Var x -> Logic.Names.SSet.add x acc | Truth _ -> acc)
        acc
        [ cl.p1; cl.p2; cl.n1; cl.n2 ])
    Logic.Names.SSet.empty f

let eval_literal assign = function
  | Truth b -> b
  | Var x -> Logic.Names.SMap.find x assign

let eval_clause assign cl =
  eval_literal assign cl.p1
  || eval_literal assign cl.p2
  || (not (eval_literal assign cl.n1))
  || not (eval_literal assign cl.n2)

let eval assign f = List.for_all (eval_clause assign) f

(* Backtracking with clause checking; exact and sufficient for the
   experiment sizes. *)
let solve f =
  let vars = Logic.Names.SSet.elements (variables f) in
  let rec go assign = function
    | [] -> if eval assign f then Some assign else None
    | x :: rest -> (
        match go (Logic.Names.SMap.add x true assign) rest with
        | Some a -> Some a
        | None -> go (Logic.Names.SMap.add x false assign) rest)
  in
  go Logic.Names.SMap.empty vars

let satisfiable f = Option.is_some (solve f)

(* Random instances for scaling experiments. *)
let random ~rng ~nvars ~nclauses =
  let var () = Var (Printf.sprintf "p%d" (Random.State.int rng nvars)) in
  List.init nclauses (fun _ -> clause (var ()) (var ()) (var ()) (var ()))
