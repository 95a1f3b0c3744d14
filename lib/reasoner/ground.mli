(** Grounding of FO(=, counting) sentences over a fixed finite domain
    into propositional clauses (one SAT variable per possible fact,
    Tseitin auxiliaries for structure). Together with {!Dpll} this gives
    the bounded model finder {!Bounded}.

    Asserted Horn shapes need no auxiliaries: a disjunction whose only
    non-literal part is one conjunction is distributed into one clause
    per conjunct, recursively, so [∃r.C ⊑ D], [C ⊑ ∀r.D] and
    [C ⊑ D ⊓ E] ground to their plain CNF. Every other shape is
    Tseitin-encoded. Either way the models over fact variables are
    those of the sentence.

    The hot path is integer-only: domain elements are interned to dense
    positions, fact variables are computed as
    [relation_base + mixed-radix tuple rank], sentences are compiled to
    slot-resolved form before quantifier expansion, and clauses land in
    a flat [int] arena consumed by the solver as slices. See DESIGN.md,
    "hot-path data layout".

    {2 Encodings}

    [create]'s [~encoding] picks one of two groundings of the same
    sentences, so that the reference model finder shares no encoding
    with {!Engine}:
    - [`Reference] (the default): plain quantifier expansion and
      sequential-counter ladders for wide counting nodes. {!Bounded},
      [Typeprog] and the tests' hom-universality oracle ground this
      way.
    - [`Engine]: cardinality constraints for wide counting nodes and
      shared nested quantifier nodes. Only {!Engine} grounds this way.

    {2 Counting}

    A counting node ∃≥n y. φ is expanded over its n-subsets of the
    domain while there are at most [subset_limit] = 64 of them
    (C(|dom|, n) ≤ 64: [>= 2] up to 11 elements, [>= 3] up to 8).
    A wider node reifies φ at each domain position, b_1..b_m (statically
    true bodies lower n to k, statically false ones drop out), and
    counts them:
    - [`Reference]: a sequential-counter ladder of reified binary and/or
      nodes, O(m·k) auxiliaries and three clauses each.
    - [`Engine]: one fresh auxiliary l and one reified cardinality
      record l ↔ (at least k of b_1..b_m), handed to {!Dpll.assert_atleast}
      by {!iter_pending}'s [~atleast].

    {2 Sharing}

    Under [`Engine], a ∀, ∃ or ∃≥n node with fewer free variables than
    its enclosing quantifiers bind — ∃x.(r(y,x) ∧ B(x)) inside
    ∀x.(A(x) → ∀y.(r(x,y) → …)), as a DL translation reusing x and y
    nests it — is grounded once per binding of its free variables
    within one {!assert_formula}, {!assert_negation} or {!reify} call:
    the first binding defines a Tseitin literal for it (full
    equivalence), and every repeat, of either polarity, is that
    literal. A depth-d sentence whose subformulas have at most 2 free
    variables then grounds to about d·|dom|² clauses instead of
    |dom|^d. The shared literals are auxiliaries defined over fact
    variables (a definitional extension), so the models over fact
    variables are those of plain expansion. Top-level sentences,
    depth-1 axioms and CQ reifications have no such node and are
    expanded as without sharing. *)

type t

type env = Structure.Element.t Logic.Names.SMap.t

exception Unbound_variable of string

(** [create ~domain ~signature ()] registers a dense fact-variable
    block for every relation of the signature over the (deduplicated)
    domain. The [budget] (default {!Budget.unlimited}) is checked per
    registered relation, per grounded subformula and per emitted
    clause or constraint, and passed to the solver; any of these points
    may raise {!Budget.Exhausted}. A trip leaves the grounding in a
    consistent, resumable state. [encoding] (default [`Reference])
    picks the encoding (see above); a grounding made with [`Engine] can
    only be drained by {!iter_pending} with [~atleast]. *)
val create :
  ?budget:Budget.t ->
  ?nulls:int ->
  ?encoding:[ `Reference | `Engine ] ->
  domain:Structure.Element.t list ->
  signature:Logic.Signature.t ->
  unit ->
  t

(** {2 Activity}

    [create ~nulls:m] treats the last m elements of the domain as fresh
    nulls n_1..n_m that a model may leave out. The grounding registers
    the unary relation {!active} first and constrains it: every other
    element is active (n_1 too when there is no other element), the
    active nulls form a prefix (act(n_{j+1}) → act(n_j)), and a fact
    of any relation registered, now or later, that touches a null
    implies that null is active. A model then restricts to its active
    elements, which are dom(D) plus n_1..n_k for some k ≤ m; a sentence
    whose quantifiers either carry an atom over every variable they
    bind or range over [active] holds in the model iff it holds in the
    restriction. *)

(** The relation of active elements. No parser yields its name (it
    starts with a space, and parsers trim relation names). *)
val active : string

(** [activity t j] is the variable of act(n_j), for 1 ≤ j ≤ m. *)
val activity : t -> int -> int

(** The number k of nulls a raw solver model makes active (0 without
    activity). *)
val active_nulls : t -> bool array -> int

(** [extend_model t m ~known base] is [base] plus what the raw solver
    model [m] adds: its active elements, and every true fact whose
    variable [known] does not claim, except those of {!active}. For
    persistent solvers driven outside this module (see {!Engine}),
    which pass their instance as [base] and its facts' variables as
    [known]. *)
val extend_model :
  t -> bool array -> known:(int -> bool) -> Structure.Instance.t -> Structure.Instance.t

(** Replace the budget consulted by subsequent operations (e.g. to run
    one query under a deadline against a long-lived session). *)
val set_budget : t -> Budget.t -> unit

(** SAT variable of a possible fact (pure arithmetic: no hashing of the
    fact itself).
    @raise Invalid_argument for facts outside the signature/domain. *)
val fact_var : t -> Structure.Instance.fact -> int

(** [is_fact_var t v] holds when SAT variable [v] is a fact variable (in
    some relation's block) rather than a Tseitin auxiliary. Every
    auxiliary the grounder emits is defined by a full equivalence over
    fact variables and earlier auxiliaries, so unit propagation fixes it
    once the facts are set — a solver need only branch on fact
    variables (the [decision] predicate of {!Dpll.ensure_nvars}).
    Constant time for variables allocated after the last relation was
    registered. *)
val is_fact_var : t -> int -> bool

(** Admit further relations after creation, registering their fact
    variables after the existing ones (idempotent). Used by sessions
    answering queries whose signature was unknown at grounding time. *)
val ensure_signature : t -> Logic.Signature.t -> unit

(** Total SAT variables so far (facts + Tseitin auxiliaries). *)
val nvars : t -> int

(** [iter_pending ?atleast t f] drains the clause arena: it calls
    [f buf off len] for every clause emitted since the last call, as
    literal slices [buf.[off..off+len)] of the arena, and
    [atleast ~k ~lit buf off n] for every cardinality constraint
    [lit ↔ (at least k of buf.[off..off+n))], in emission order — for
    handing them to a persistent solver ({!Dpll.assert_clause_slice},
    {!Dpll.assert_atleast}) without materialising lists — and then
    drops them, so each record is handed over exactly once and the
    grounding keeps no second copy of what the solver stores. The
    slices are only valid during the iteration. After a drain,
    {!solve}, {!enumerate} and {!enumerate_projections} see only the
    clauses emitted since: they are for groundings that never drain.
    @raise Invalid_argument on a constraint when [atleast] is absent. *)
val iter_pending :
  ?atleast:(k:int -> lit:int -> int array -> int -> int -> unit) ->
  t ->
  (int array -> int -> int -> unit) ->
  unit

(** Assert that [f] holds (under [env] for its free variables). *)
val assert_formula : ?env:env -> t -> Logic.Formula.t -> unit

(** Assert that [f] fails. *)
val assert_negation : ?env:env -> t -> Logic.Formula.t -> unit

(** Force a fact to be true. *)
val assert_fact : t -> Structure.Instance.fact -> unit

(** Force all facts of an instance to be true. *)
val assert_instance : t -> Structure.Instance.t -> unit

(** Solve the clauses in the arena (every clause, on a grounding that
    never drained; see {!iter_pending}); [Some m] is a model containing
    exactly the true facts, with the whole domain as its universe.
    These one-shot paths ({!solve}, {!enumerate},
    {!enumerate_projections}) take clauses only.
    @raise Invalid_argument on a grounding holding a constraint
    (made with [~encoding:`Engine]). *)
val solve : t -> Structure.Instance.t option

(** Enumerate models (distinct fact sets), up to [limit]. *)
val enumerate : ?limit:int -> t -> Structure.Instance.t list

(** A literal equivalent to [f] under [env] (full Tseitin equivalence),
    for projected enumeration. *)
val reify : ?env:env -> t -> Logic.Formula.t -> int

(** Distinct truth-value combinations of the given literals over all
    models (each result aligns with the input literal list). *)
val enumerate_projections : ?limit:int -> t -> int list -> bool list list
