(** The restricted chase for existential rules (TGDs), Datalog≠ rules
    and equality generating dependencies. For Horn ontologies the chase
    result is a universal model, hence computes certain answers exactly.

    The chase runs in semi-naive rounds. The first round matches every
    rule body in full; each later round matches a body only through
    bindings that map some atom onto a fact the previous round added
    (one atom pinned to each such fact, then {!Structure.Eval.fold_body}
    with the pin's variables bound). After an EGD merges elements, which
    renames facts, the next round matches in full again.

    Within a round, triggers are matched in the instance at the start
    of the round and applied in sorted order of their frontier bindings,
    so fresh nulls, and hence results, are deterministic. A trigger
    fires only when it is active: a rule without existential variables
    adds the head facts the instance lacks, and a rule with existential
    variables fires (with fresh nulls) when its head has no witness in
    the instance at the start of the round. This is the parallel form
    of the restricted chase: two triggers of one round whose heads would
    satisfy each other both fire, which still yields a universal model.

    There is no round cap. The budget is the only bound: without one, a
    chase that does not terminate (e.g. [A(x) → ∃y. R(x,y) ∧ A(y)])
    diverges. *)

type rule

(** A rule [body ∧ neq → ∃ȳ. head], where [ȳ] are the head variables
    that do not occur in [body], and each [(s, t)] of [neq] requires
    [s ≠ t].
    @raise Invalid_argument when an inequality names a variable not in
    [body]. *)
val rule :
  ?name:string ->
  ?neq:(Logic.Term.t * Logic.Term.t) list ->
  body:Query.Cq.atom list ->
  head:Query.Cq.atom list ->
  unit ->
  rule

type egd

(** The EGD [body → left = right].
    @raise Invalid_argument when [left] or [right] is not in [body]. *)
val egd :
  ?name:string ->
  body:Query.Cq.atom list ->
  left:string ->
  right:string ->
  unit ->
  egd

exception Egd_failure of string

(** The saturated chase: no trigger is active and every EGD holds. *)
type result = { instance : Structure.Instance.t }

(** Run the chase to its fixpoint. Each rule trigger debits one unit
    of fuel, and budget checkpoints sit between triggers and between EGD
    merges, where the chased instance is a sound prefix of the universal
    model.
    @raise Egd_failure when an EGD equates distinct constants.
    @raise Budget.Exhausted on a budget trip. *)
val run :
  ?budget:Budget.t -> ?egds:egd list -> rule list -> Structure.Instance.t -> result

(** Typed form of {!run}: {!Budget.protect} around the same rounds. On a
    trip the partial payload is the instance after the last completed
    round (the input itself when none completed), a sound
    under-approximation of the universal model. *)
val try_run :
  Budget.t ->
  ?egds:egd list ->
  rule list ->
  Structure.Instance.t ->
  (result, result) Budget.outcome

(** Certain answer over the chase result; inconsistent instances entail
    everything. *)
val certain_cq :
  ?budget:Budget.t ->
  ?egds:egd list ->
  rule list ->
  Structure.Instance.t ->
  Query.Cq.t ->
  Structure.Element.t list ->
  bool
