(** Database instances and interpretations (Section 2).

    An instance is a finite set of facts over constants; an interpretation
    may additionally contain labelled nulls and isolated domain elements.
    Both are represented by this one type. *)

type fact = { rel : string; args : Element.t list }

(** [fact r args] builds a fact with [r] interned into a per-domain
    relation-name pool, so [compare_fact] settles the name comparison by
    physical equality on the hot path. *)
val fact : string -> Element.t list -> fact

val compare_fact : fact -> fact -> int

module FactSet : Set.S with type elt = fact

type t

val empty : t

(** Stable identity of this immutable value. Two structurally distinct
    instances never share a uid, and any operation that changes the facts
    or the domain returns a value with a fresh uid (operations that leave
    the value unchanged may return the original record). Per-domain
    evaluation-index caches ([Relindex]) key on this. *)
val uid : t -> int

(** [add_element e t] adds an (possibly isolated) element to the domain. *)
val add_element : Element.t -> t -> t

val add_fact : fact -> t -> t

(** [remove_fact f t] deletes [f]; elements whose last incident fact was
    [f] leave the domain (isolated elements added via [add_element] are
    kept). The signature is unchanged. No-op when [f] is absent. *)
val remove_fact : fact -> t -> t

val of_facts : fact list -> t

(** [of_list [(r, args); ...]] builds an instance from labelled tuples. *)
val of_list : (string * Element.t list) list -> t

val facts : t -> fact list

(** Iterate the facts without materialising a list. *)
val iter_facts : (fact -> unit) -> t -> unit

val fact_set : t -> FactSet.t
val mem : fact -> t -> bool
val domain : t -> Element.Set.t
val domain_list : t -> Element.t list
val cardinal : t -> int
val domain_size : t -> int
val signature : t -> Logic.Signature.t

(** [incident e t] is the list of facts of [t] mentioning [e]. *)
val incident : Element.t -> t -> fact list

(** [tuples r t] lists the argument tuples of relation [r]. *)
val tuples : string -> t -> Element.t list list

val union : t -> t -> t

(** [subset a b] holds iff every fact of [a] is a fact of [b]
    (i.e. [b] is a model of the instance [a]). *)
val subset : t -> t -> bool

(** [map_elements h t] applies [h] to every element. *)
val map_elements : (Element.t -> Element.t) -> t -> t

(** [fresh_nulls n t] returns [n] nulls not occurring in [t]. *)
val fresh_nulls : int -> t -> Element.t list

val constants : t -> Element.Set.t

(** Model-theoretic disjoint union: domains are made disjoint by tagging
    constants with ["l:"] / ["r:"] and shifting nulls. *)
val disjoint_union : t -> t -> t

val equal : t -> t -> bool
val pp_fact : fact Fmt.t
val pp : t Fmt.t
