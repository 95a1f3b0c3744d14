(** Seeded random instance generation for tests and experiments. *)

(** All [k]-tuples over a domain. *)
val tuples : Element.t list -> int -> Element.t list list

(** [instance ~rng ~signature ~size ~p] draws each possible fact over
    [size] constants independently with probability [p]. *)
val instance :
  rng:Random.State.t ->
  signature:Logic.Signature.t ->
  size:int ->
  p:float ->
  Instance.t

(** [large ~rng ~nfacts ()] draws a large sparse instance directly (no
    tuple-space enumeration): [nfacts] binary facts uniformly over
    [nrels] relations r0… on [nconst] constants c0…, plus unary concepts
    C0…C{nunary-1} holding each constant with probability [unary_p].
    Deterministic given the rng state; duplicate draws collapse, so the
    binary fact count is approximately (just under) [nfacts]. *)
val large :
  rng:Random.State.t ->
  ?nconst:int ->
  ?nrels:int ->
  ?nunary:int ->
  ?unary_p:float ->
  nfacts:int ->
  unit ->
  Instance.t

(** As {!instance} but guarantees at least one fact when the signature is
    non-empty. *)
val nonempty_instance :
  rng:Random.State.t ->
  signature:Logic.Signature.t ->
  size:int ->
  p:float ->
  Instance.t
