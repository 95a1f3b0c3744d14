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
    a flat [int] arena consumed by the solver as slices. A
    bounded domain-local memo replays the compiled ground circuit of
    structurally identical (sentence, domain size) pairs across
    sessions. See DESIGN.md, "hot-path data layout". *)

type t

type env = Structure.Element.t Logic.Names.SMap.t

exception Unbound_variable of string

(** [create ~domain ~signature ()] registers a dense fact-variable
    block for every relation of the signature over the (deduplicated)
    domain. The [budget] (default {!Budget.unlimited}) is checked per
    registered relation, per grounded subformula and per emitted
    clause, and passed to the solver; any of these points may raise
    {!Budget.Exhausted}. A trip leaves the grounding in a consistent,
    resumable state. *)
val create :
  ?budget:Budget.t ->
  domain:Structure.Element.t list ->
  signature:Logic.Signature.t ->
  unit ->
  t

(** Replace the budget consulted by subsequent operations (e.g. to run
    one query under a deadline against a long-lived session). *)
val set_budget : t -> Budget.t -> unit

(** [(hits, misses)] of the circuit memo on this grounding's lifetime:
    circuits it replayed, and circuits it expanded and recorded. *)
val memo_counts : t -> int * int

(** SAT variable of a possible fact (pure arithmetic: no hashing of the
    fact itself).
    @raise Invalid_argument for facts outside the signature/domain. *)
val fact_var : t -> Structure.Instance.fact -> int

(** [is_fact_var t v] holds when SAT variable [v] is a fact variable (in
    some relation's block) rather than a Tseitin auxiliary. Every
    auxiliary the grounder emits is defined by a full equivalence over
    fact variables and earlier auxiliaries, so unit propagation fixes it
    once the facts are set — a solver need only branch on fact
    variables (see {!Dpll.set_decision_var}). Constant time for
    variables allocated after the last relation was registered. *)
val is_fact_var : t -> int -> bool

(** Admit further relations after creation, registering their fact
    variables after the existing ones (idempotent). Used by sessions
    answering queries whose signature was unknown at grounding time. *)
val ensure_signature : t -> Logic.Signature.t -> unit

(** Total SAT variables so far (facts + Tseitin auxiliaries). *)
val nvars : t -> int

(** [iter_pending t f] calls [f buf off len] for every clause emitted
    since the last call, as literal slices [buf.[off..off+len)] of the
    clause arena, in emission order — for pushing into a persistent
    solver ({!Dpll.assert_clause_slice}) without materialising lists.
    The slices are only valid during the iteration. *)
val iter_pending : t -> (int array -> int -> int -> unit) -> unit

(** Assert that [f] holds (under [env] for its free variables). *)
val assert_formula : ?env:env -> t -> Logic.Formula.t -> unit

(** Assert that [f] fails. *)
val assert_negation : ?env:env -> t -> Logic.Formula.t -> unit

(** Force all facts of an instance to be true. *)
val assert_instance : t -> Structure.Instance.t -> unit

(** Solve; [Some m] is a model containing exactly the true facts, with
    the whole domain as its universe. *)
val solve : t -> Structure.Instance.t option

(** Read an instance off a raw solver model (for persistent solvers
    driven outside this module, see {!Engine}). *)
val extract_model : t -> bool array -> Structure.Instance.t

(** Enumerate models (distinct fact sets), up to [limit]. *)
val enumerate : ?limit:int -> t -> Structure.Instance.t list

(** A literal equivalent to [f] under [env] (full Tseitin equivalence),
    for projected enumeration. *)
val reify : ?env:env -> t -> Logic.Formula.t -> int

(** Distinct truth-value combinations of the given literals over all
    models (each result aligns with the input literal list). *)
val enumerate_projections : ?limit:int -> t -> int list -> bool list list

(** {2 The cross-session circuit memo}

    Completed groundings are memoized per domain (each worker domain
    warms its own shared-nothing memo; {!set_memo_capacity} and
    {!clear_memo} act on the calling domain only), keyed by
    (operation, domain size, compiled sentence), and replayed — clause
    slice appended, auxiliary variables shifted to fresh ones — when a
    structurally identical grounding recurs in any session. Replay
    still charges the budget per clause. Hits and misses are counted on
    the grounding that replayed or expanded ({!memo_counts}) and show
    up in the profile table as the
    [ground.memo_replay]/[ground.memo_expand] spans. *)

(** Maximum number of memoized circuits on the calling domain (default
    256; least recently used evicted). [set_memo_capacity 0] disables
    and clears the memo. *)
val set_memo_capacity : int -> unit

(** The calling domain's memo capacity. *)
val memo_capacity : unit -> int

(** Drop every memoized circuit (for benchmarks and deterministic
    tests). *)
val clear_memo : unit -> unit

(** Number of circuits currently memoized. *)
val memo_size : unit -> int
