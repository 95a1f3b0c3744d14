(** The Theorem 5 type-based procedure for binary signatures: compute
    the realizable types over cl(O, q), assign candidate sets to the
    maximally guarded tuples of the instance, prune to neighbour
    compatibility, and answer from the surviving sets.

    This is the semantics of the paper's Datalog≠ rewriting Π (whose
    predicates P{_Θ} range over sets of types): the pruning fixpoint
    here is exactly the set of facts Π derives. It characterises
    certain answers for unravelling-tolerant ontologies; on others it
    computes the unravelling side of Definition 3. *)

exception Not_two_variable of string

(** More than [limit] realizable types exist (the payload is [limit]).
    The enumeration stopped short, and pruning over a truncated type set
    could claim "certain" or "inconsistent" wrongly, so {!run} and
    {!entails} give no verdict. Exactly [limit] types is not a
    truncation. *)
exception Too_many_types of int

type closure

(** cl(O, q): subformulas of O, atomic formulas over the joint
    signature, equality, and the query, closed under x↔y swap.
    @raise Not_two_variable outside the binary/two-variable setting. *)
val closure : Logic.Ontology.t -> Query.Cq.t -> closure

(** Number of closure entries. *)
val size : closure -> int

type state

(** Enumerate the realizable types over the closure, as projections of
    bounded models of O ([extra] fresh witness elements, default 2; at
    most [limit] binary and [limit] unary types, default 32768), then
    assign initial type sets to the instance's guarded tuples and prune
    to the fixpoint. Budget checkpoints sit between pruning passes,
    where the surviving sets are a sound over-approximation; a trip
    raises {!Reasoner.Budget.Exhausted}.
    @raise Too_many_types when more than [limit] binary or unary types
    exist. *)
val run :
  ?budget:Reasoner.Budget.t ->
  ?extra:int ->
  ?limit:int ->
  Logic.Ontology.t ->
  Query.Cq.t ->
  Structure.Instance.t ->
  state

(** The rewritten evaluation of q(ā) on D.
    @raise Too_many_types as {!run}. *)
val entails :
  ?budget:Reasoner.Budget.t ->
  ?extra:int ->
  ?limit:int ->
  Logic.Ontology.t ->
  Query.Cq.t ->
  Structure.Instance.t ->
  Structure.Element.t list ->
  bool

(** (number of guarded tuples, total surviving types). *)
val statistics : state -> int * int
