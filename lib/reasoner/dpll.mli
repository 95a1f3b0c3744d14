(** A CDCL SAT solver (two-watched literals, 1-UIP learning, VSIDS,
    restarts) used by the bounded model finder and the incremental
    engine. Literals are non-zero integers ±v for 1-based variables.

    The solver is persistent: {!make} creates one that accepts new
    variables and clauses between calls via {!ensure_nvars} and
    {!assert_clause}, keeps its learned clauses, and solves under
    assumption literals with {!solve_assuming}.

    Clause memory follows MiniSat: clauses of three or more literals
    (original and learned) are records in one flat [int] arena, watched
    through per-literal growable vectors; binary clauses live only in
    per-literal binary vectors, and a literal they imply records the
    binary clause as its reason, which conflict analysis and {!core}
    follow like any other. Reified cardinality constraints
    ({!assert_atleast}) are records of the same arena, propagated by
    counting; the clause that explains one of their implications is
    built on demand, so learning and {!core} see only clauses. See
    DESIGN.md §5, "Solver memory layout". *)

type result =
  | Sat of bool array  (** index v-1 holds the value of variable v *)
  | Unsat

(** A persistent incremental solver. *)
type t

val make : nvars:int -> t

(** [ensure_nvars ?decision s n] admits variables 1..n (idempotent,
    may only grow). Each new variable [v] is one the search may branch
    on iff [decision v] (default: every variable), as MiniSat's
    [setDecisionVar] at creation; only those enter the order heap, and
    {!seed_clause_slice} leaves the others' activity alone. Admit as
    non-decision the variables that unit propagation fixes once the
    decision variables are set (Tseitin auxiliaries): the search then
    branches only on the rest, each at its initial phase, [false]
    (no phase is saved: DESIGN.md §5, "Branching phase").
    Verdicts stay complete either way — a variable left unassigned when
    no decision variable remains is decided anyway, so a model always
    assigns every variable. *)
val ensure_nvars : ?decision:(int -> bool) -> t -> int -> unit

(** Add a clause at level 0 (cancelling any open decision levels).
    Duplicate literals are removed and tautologies dropped by one
    sort-and-scan pass. Registers unseen variables automatically. *)
val assert_clause : t -> int list -> unit

(** [assert_clause_slice s buf off len] asserts the clause stored as the
    literal slice [buf.[off..off+len)] — the grounder's flat clause
    arena feeds this directly, with no per-clause list. [buf] is not
    modified. *)
val assert_clause_slice : t -> int array -> int -> int -> unit

(** [assert_atleast s ~lit ~k buf off n] adds, at level 0, the reified
    cardinality constraint [lit ↔ (at least k of b_1..b_n)] over the
    literal slice [buf.[off..off+n)] (MiniCard's native constraint,
    Liffiton–Maglalang 2012, reified). The b's may repeat and may
    include complementary literals: each occurrence counts. It
    propagates both ways: k true b's imply [lit] and n - k + 1 false
    ones imply its negation; [lit] true with n - k false b's forces the
    others true, and [lit] false with k - 1 true b's forces the others
    false. So [lit] may be admitted as a non-decision variable: it is
    fixed once the b's are. An implication's reason is the constraint
    itself, whose explanation clause is built when conflict analysis or
    {!core} asks for it, from the literals assigned before the implied
    one; no clause is stored per propagation. The next search first
    probes the constraint: at level 0, each unassigned b one step from
    fixing an unassigned [lit] is tried at that value, and one that
    propagation refutes is negated as a level-0 unit (a conflict in
    {!counters}). [buf] is not modified.
    Registers unseen variables (as decision variables).
    @raise Invalid_argument unless 1 ≤ k ≤ n, or if [lit]'s variable is
    among the b's. *)
val assert_atleast : t -> lit:int -> k:int -> int array -> int -> int -> unit

(** Seed branching activity from the clause in an arena slice
    (Jeroslow-Wang-ish weights); call before {!assert_clause_slice} when
    building a solver incrementally.
    Seeding only raises activities, so each literal's variable is
    bumped and sifted up in the order heap in place (MiniSat's
    discipline): the heap stays valid and no solve pays a rebuild over
    every variable, however many clauses arrive between solves.
    Variables admitted as non-decision are skipped. Registers unseen
    variables (as decision variables). *)
val seed_clause_slice : t -> int array -> int -> int -> unit

(** Solve the accumulated clauses under temporary assumption literals.
    Learned clauses persist; assumptions do not. With a [budget], the
    CDCL loop checkpoints between propagation/decision rounds (debiting
    fuel by propagations + conflicts) and may raise {!Budget.Exhausted};
    the solver remains consistent and reusable after such a trip. *)
val solve_assuming : ?budget:Budget.t -> t -> int list -> result

(** The failed-assumption core of the last {!solve_assuming} call, when it answered [Unsat] (MiniSat's
    [analyzeFinal]): a subset of that call's assumption literals that
    the clauses alone refute. It holds the assumption found false plus
    the assumptions whose propagation falsified it, and is [[]] once
    the solver has found the clauses alone unsatisfiable (a conflict at
    level 0). A clause set that only search refutes may still fail an
    assumption first, and then reports that assumption's core. The core
    is not minimised. Clauses are only ever added, and learned clauses
    are implied by them, so a core stays a refutation for the solver's
    whole lifetime. After a satisfiable call or a budget trip it is
    [[]]. *)
val core : t -> int list

(** Cumulative (decisions, propagations, conflicts). *)
val counters : t -> int * int * int

(** One-shot solve. Activities and phases are set in bulk from
    occurrence counts and the order heap is rebuilt once, at the single
    search. May raise {!Budget.Exhausted} when budgeted. *)
val solve : ?budget:Budget.t -> nvars:int -> int list list -> result

(** One-shot solve over a clause iterator: [iter f] must call
    [f buf off len] once per clause slice and be re-runnable (it is
    iterated twice: once to seed activities/phases, once to assert). *)
val solve_iter :
  ?budget:Budget.t -> nvars:int -> ((int array -> int -> int -> unit) -> unit) -> result

(** Truth of a literal in a model array. *)
val lit_true : bool array -> int -> bool

(** Enumerate models projected onto the [project]ed literals, blocking
    each projection; stops at [limit]. Incremental underneath: one
    persistent solver, learned clauses kept across models. *)
val enumerate :
  ?budget:Budget.t ->
  nvars:int ->
  project:int list ->
  ?limit:int ->
  int list list ->
  bool array list

(** {!enumerate} over a clause iterator (see {!solve_iter}; here the
    iterator runs once). *)
val enumerate_iter :
  ?budget:Budget.t ->
  nvars:int ->
  project:int list ->
  ?limit:int ->
  ((int array -> int -> int -> unit) -> unit) ->
  bool array list
