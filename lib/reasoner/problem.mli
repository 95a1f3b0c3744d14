(** The shared grounding problem of {!Bounded} and {!Engine}: models
    of (O, D) are sought over dom(D) plus [extra] fresh labelled nulls.
    {!build} is {!Bounded}'s grounding of one bound, with the
    ontology's, the instance's and any extra signature's relations
    registered. *)

(** The default deepening ceiling: 2 fresh nulls. *)
val default_max_extra : int

(** [deepen ?max_extra at] runs [at k] for k = 0..[max_extra] (default
    {!default_max_extra}) in order and returns the first [Some]; [None]
    when no bound is decisive. The one iterative-deepening loop: every
    search of {!Bounded} and the engine's signed-model walk go through
    it. *)
val deepen : ?max_extra:int -> (int -> 'a option) -> 'a option

(** dom(D) plus [extra] fresh nulls (never empty). *)
val domain : extra:int -> Structure.Instance.t -> Structure.Element.t list

(** [build ?budget ?extra_signature ~extra o d] grounds O and D over the
    bounded domain: instance facts asserted, all ontology sentences
    asserted. May raise {!Budget.Exhausted} when budgeted. *)
val build :
  ?budget:Budget.t ->
  ?extra_signature:Logic.Signature.t ->
  extra:int ->
  Logic.Ontology.t ->
  Structure.Instance.t ->
  Ground.t
