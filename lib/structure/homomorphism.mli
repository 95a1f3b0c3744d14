(** Homomorphisms between instances/interpretations (Section 2), found by
    backtracking search with fact-based candidate filtering. *)

type map = Element.t Element.Map.t

(** [is_homomorphism m ~source ~target] checks that [m] maps every fact of
    [source] to a fact of [target]. *)
val is_homomorphism : map -> source:Instance.t -> target:Instance.t -> bool

(** [fold ~source ~target f init] enumerates homomorphisms extending
    [fixed]; [f] returns [(stop, acc)]. Non-injective searches run on
    the {!Eval} join planner; [injective] searches take {!fold_naive}. *)
val fold :
  ?fixed:map ->
  ?injective:bool ->
  source:Instance.t ->
  target:Instance.t ->
  (map -> 'a -> bool * 'a) ->
  'a ->
  'a

(** Backtracking enumeration with fact-based candidate filtering: the
    [injective] path of {!fold}, and the independent reference the
    equivalence suite and the [bench.eval] naive rows compare the
    planner against. Same contract as {!fold}. *)
val fold_naive :
  ?fixed:map ->
  ?injective:bool ->
  source:Instance.t ->
  target:Instance.t ->
  (map -> 'a -> bool * 'a) ->
  'a ->
  'a

(** First homomorphism extending [fixed], if any. *)
val find :
  ?fixed:map ->
  ?injective:bool ->
  source:Instance.t ->
  target:Instance.t ->
  unit ->
  map option

val exists :
  ?fixed:map ->
  ?injective:bool ->
  source:Instance.t ->
  target:Instance.t ->
  unit ->
  bool

(** All homomorphisms (up to [limit] if given). *)
val all :
  ?fixed:map ->
  ?injective:bool ->
  ?limit:int ->
  source:Instance.t ->
  target:Instance.t ->
  unit ->
  map list
