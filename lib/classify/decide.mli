(** Deciding PTIME query evaluation (Theorem 13): for uGC{^ −}{_2}(1,=) /
    ALCHIQ-depth-1 ontologies, PTIME evaluation coincides with
    materializability, which reduces to materializability of bouquets of
    outdegree ≤ |O| (Lemma 5). Bouquets are enumerated structurally plus
    random samples; a failure is an exact coNP-hardness witness, success
    is evidence relative to the enumeration and domain bounds. *)

type verdict =
  | Ptime_evidence of int
  | Conp_hard of Structure.Instance.t

(** Bouquets failing at the base bounds are re-checked with
    [verify_extra] more domain elements to filter bound artifacts.
    [on_checked] is called after each fully checked bouquet (progress
    reporting). A [?budget] is checked once per bouquet and threaded
    into the underlying searches; a trip raises
    {!Reasoner.Budget.Exhausted}. *)
val decide :
  ?budget:Reasoner.Budget.t ->
  ?on_checked:(int -> unit) ->
  ?seed:int ->
  ?max_outdegree:int ->
  ?samples:int ->
  ?max_model_extra:int ->
  ?max_extra:int ->
  ?verify_extra:int ->
  Logic.Ontology.t ->
  verdict

(** Typed form of {!decide}: on a trip the partial payload is the
    number of bouquets fully checked before exhaustion. *)
val try_decide :
  Reasoner.Budget.t ->
  ?seed:int ->
  ?max_outdegree:int ->
  ?samples:int ->
  ?max_model_extra:int ->
  ?max_extra:int ->
  ?verify_extra:int ->
  Logic.Ontology.t ->
  (verdict, int) Reasoner.Budget.outcome
