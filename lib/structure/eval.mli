(** Selectivity-ordered join evaluation over {!Relindex}.

    Conjunctive bodies are atom lists over integer variables and
    constant elements. {!make_plan} orders atoms greedily — smallest
    estimated row count (cardinality over bound-position distinct
    counts) first, ties broken by fewest unbound variables, smallest
    relation, then original index — a pure function of the atoms and
    index statistics, so plans and enumeration orders are
    deterministic. {!fold} executes the plan depth-first, serving each
    atom's bound positions through the index's adaptive scan→hash
    access paths. *)

type term = Const of Element.t | Var of int
type atom = { rel : string; args : term array }

val atom : string -> term list -> atom

type access = Membership | Lookup | Scan

type step = {
  atom_ix : int;  (** index into the original atom list *)
  mask : int;  (** argument positions bound when this atom runs *)
  est : float;  (** estimated matching rows *)
  access : access;
  rel_size : int;
}

type plan = { atoms : atom array; order : step list; nvars : int }

(** [make_plan idx ?bound atoms] plans the join with the variables in
    [bound] treated as already bound (they will be pre-bound at
    execution). Emits an [eval.plan] span when tracing is enabled, at
    most once per distinct body shape per domain. *)
val make_plan : Relindex.t -> ?bound:int list -> atom list -> plan

(** The chosen order, access paths and estimates as a JSON object. *)
val explain_json : plan -> string

(** [fold idx plan ~bindings f init] enumerates every assignment of the
    plan's variables satisfying all atoms, depth-first in plan order.
    [bindings] pre-binds variables; every variable below [plan.nvars]
    must occur in an atom or in [bindings]. [f] gets the assignment
    (array indexed by variable — valid only during the call) and the
    accumulator, returning [(stop, acc)]. *)
val fold :
  Relindex.t ->
  plan ->
  bindings:(int * Element.t) list ->
  (Element.t array -> 'a -> bool * 'a) ->
  'a ->
  'a

(** {2 Named-variable bodies}

    The single entry point through which rule and query bodies —
    [(rel, terms)] atoms over named variables and constants — reach the
    planner: [Query.Cq] evaluation, the chase's trigger search and
    semi-naive Datalog all compile here. The reference implementations
    the equivalence suites compare against are
    {!Homomorphism.fold_naive} and [Datalog.Seminaive.evaluate_naive]. *)

type body = {
  var_ix : int Logic.Names.SMap.t;
      (** variable numbering, in sorted-name order *)
  body_atoms : atom list;
}

val compile : (string * Logic.Term.t list) list -> body

(** [fold_body inst ?bound body f init] plans [body] over [inst]'s
    {!Relindex} with the named variables of [bound] pre-bound, then
    folds its solutions exactly as {!fold} does (the solution array is
    indexed by [body.var_ix]). *)
val fold_body :
  Instance.t ->
  ?bound:(string * Element.t) list ->
  body ->
  (Element.t array -> 'a -> bool * 'a) ->
  'a ->
  'a

val pp_atom : atom Fmt.t
