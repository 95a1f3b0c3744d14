(** Ontology-mediated queries (O, q) — the paper's central object — and
    the analyses developed for them. This is the library façade used by
    the examples and the command-line tool.

    Evaluation runs on the incremental {!Reasoner.Engine}: open a
    {!session} to ground (O, D) once and answer many tuples against
    it; {!certain_answers} is a shorthand that opens a fresh session
    per call.

    Every evaluation entry takes a budget (default
    {!Reasoner.Budget.unlimited}). The plain forms raise
    {!Reasoner.Budget.Exhausted} on a trip; {!Session.evaluate}, the one
    verdict the CLI, the daemon and the corpus serve, returns a typed
    {!Reasoner.Budget.outcome} and degrades gracefully to the tuples
    certified before exhaustion plus where to resume. *)

(** The versioned typed wire schema shared by the serve daemon, the
    blocking client and [omq_tool]'s one-shot [--json] output. *)
module Protocol = Protocol

type t = {
  ontology : Logic.Ontology.t;
  query : Query.Ucq.t;
}

val make : Logic.Ontology.t -> Query.Ucq.t -> t
val of_cq : Logic.Ontology.t -> Query.Cq.t -> t

(** Build from a DL TBox via the standard translation. *)
val of_tbox : Dl.Tbox.t -> Query.Ucq.t -> t

(** An evaluation session for one (O, q, D): the one
    {!Reasoner.Engine} of (O, D), which grounds once, over dom(D) plus
    max_extra nulls, on first use, plus candidate streaming, partial answers
    and budget-trip counting. *)
type session

(** The verdict on D: whether D is consistent with O and, if so, the
    certain answers in candidate order ([[]] when inconsistent). *)
type evaluation = { consistent : bool; answers : Structure.Element.t list list }

(** A budget-tripped evaluation: the tuples certified before the trip,
    and the first candidate not yet decided — resume by re-checking it
    and every later candidate. [resume_from] is [None] only for a query
    with no candidate (an empty active domain). *)
type partial = {
  certified : Structure.Element.t list list;
  resume_from : Structure.Element.t list option;
}

(** [open_session ?updatable omq d] opens an evaluation session.
    Updatable sessions hold a {e dynamic} engine — instance facts are
    carried as solver assumptions — so {!Session.insert_facts} /
    {!Session.retract_facts} can delta-maintain it instead of
    regrounding. *)
val open_session :
  ?max_extra:int -> ?updatable:bool -> t -> Structure.Instance.t -> session

module Session : sig
  type t = session

  val instance : t -> Structure.Instance.t
  val updatable : t -> bool

  (** [insert_facts s facts] returns the session for D ∪ facts, either
      by delta-maintaining the grounding of [s]'s engine ([`Delta])
      or
      by reopening on the union ([`Reopen]: non-updatable session, a
      fact over a new domain element, or a static engine). Both results
      answer identically to a fresh session on the updated instance. *)
  val insert_facts :
    ?budget:Reasoner.Budget.t ->
    t ->
    Structure.Instance.fact list ->
    t * [ `Delta | `Reopen ]

  (** [retract_facts s facts] returns the session for D minus [facts]
      (absent facts are ignored); [`Reopen] additionally covers
      retractions that vacate a domain element. *)
  val retract_facts :
    ?budget:Reasoner.Budget.t ->
    t ->
    Structure.Instance.fact list ->
    t * [ `Delta | `Reopen ]

  (** O,D ⊨ q(ā): no countermodel at any bound 0..max_extra. *)
  val certain : ?budget:Reasoner.Budget.t -> t -> Structure.Element.t list -> bool

  val is_consistent : ?budget:Reasoner.Budget.t -> t -> bool

  (** Certain answers, streamed over the active domain without
      materializing the |dom|^arity candidate list. *)
  val certain_answers_seq :
    ?budget:Reasoner.Budget.t -> t -> Structure.Element.t list Seq.t

  (** All certain answers; boolean queries short-circuit on their single
      candidate. *)
  val certain_answers :
    ?budget:Reasoner.Budget.t -> t -> Structure.Element.t list list

  (** [evaluate budget s] checks consistency and then decides every
      candidate tuple, under one ["omq.query"] span. A trip in either
      phase is counted once in {!stats} and returned as a {!partial};
      a trip while consistency is checked resumes from the first
      candidate. *)
  val evaluate :
    Reasoner.Budget.t -> t -> (evaluation, partial) Reasoner.Budget.outcome

  (** The work of this session's engine, summed over the bounds it
      grounded ({!Reasoner.Engine.stats}), plus the budget trips of its
      {!evaluate} calls. A session returned by a [`Delta] update keeps
      counting where its predecessor left off; a [`Reopen] counts from
      zero. *)
  val stats : t -> Reasoner.Stats.t
end

(** All certain answers over the active domain, in a fresh session. *)
val certain_answers :
  ?budget:Reasoner.Budget.t ->
  ?max_extra:int ->
  t ->
  Structure.Instance.t ->
  Structure.Element.t list list

(** {2 Front ends}

    What the CLI, the daemon and the corpus runner share: input parsing
    with one error format, and the {!Protocol} payloads of a
    classification and of an evaluation. *)

(** Parse errors read [source:line: message] ([source:line:col:
    message] for a lexical error in an ontology; [source: message] for
    a query), where [source] names the file or the wire field. *)
val parse_tbox : source:string -> string -> (Dl.Tbox.t, string) result

val parse_instance : source:string -> string -> (Structure.Instance.t, string) result
val parse_query : source:string -> string -> (Query.Ucq.t, string) result

(** The Figure 1 classification payload of a TBox, and its wire
    response. *)
val classification : Dl.Tbox.t -> Protocol.classification

val classify_response : Dl.Tbox.t -> Protocol.response

(** [eval_response ~boolean ?stats o] is the wire response for the
    outcome of {!Session.evaluate}: [Evaled] or [Partial], carrying
    [stats] (a {!Reasoner.Stats.to_json} object) when given. *)
val eval_response :
  boolean:bool ->
  ?stats:Protocol.Json.t ->
  (evaluation, partial) Reasoner.Budget.outcome ->
  Protocol.response

(** Figure 1 classification of the ontology. *)
val classify : t -> Classify.Landscape.evidence

(** The minimal uGF/uGC2 fragment descriptor. *)
val fragment : t -> Gf.Fragment.t option

(** Materializability on an instance (bounded search). *)
val materializable_on :
  ?budget:Reasoner.Budget.t ->
  ?max_model_extra:int ->
  ?max_extra:int ->
  t ->
  Structure.Instance.t ->
  bool

(** The Theorem 5 type-based evaluation; [Error `Not_single_cq] when the
    query has more than one disjunct, [Error (`Not_two_variable _)] when
    the (O, q) pair leaves the binary/two-variable setting the procedure
    supports, [Error (`Too_many_types limit)] when more realizable types
    exist than the enumeration limit (see
    {!Rewriting.Typeprog.Too_many_types}). *)
val rewritten_certain :
  ?budget:Reasoner.Budget.t ->
  ?extra:int ->
  t ->
  Structure.Instance.t ->
  Structure.Element.t list ->
  ( bool,
    [ `Not_single_cq | `Not_two_variable of string | `Too_many_types of int ]
  )
  result


(** A no-op. The answering stack keeps no cache across sessions: each
    session's engine grounds its own (O, D) once, and nothing outlives
    the session. Kept for benchmark drivers that call it before a cold
    measurement, written when the grounder had a cross-session memo. *)
val clear_caches : unit -> unit

(** Batch classification / evaluation of a corpus of ontologies on a
    {!Parallel.Pool} — the paper's experimental shape (hundreds of
    BioPortal ontologies) run many-at-once.

    Corpus items are independent and share no mutable structure of the
    answering stack, so the fan-out is shared-nothing: each item holds
    its own session engine and stats record, and results are assembled
    in submission order. Consequently a run's results (and any
    rendering that omits timings) are bit-identical for every [jobs]
    count. *)
module Corpus : sig
  type item = { name : string; tbox : Dl.Tbox.t }

  (** A deterministic synthetic corpus ({!Bioportal.Generate.corpus}),
      items named [gen<seed>-<index>]. *)
  val generate : ?seed:int -> n:int -> unit -> item list

  (** All [.dl] files of a directory, sorted by file name (enumeration
      order is filesystem-dependent, and corpus order is part of the
      deterministic output contract); item names drop the extension.
      [Error] on an unreadable directory, an unparsable file, or no
      [.dl] files at all. *)
  val load_dir : string -> (item list, string) result

  type task =
    | Classify  (** Figure 1 landscape classification, per ontology *)
    | Eval of {
        query : Query.Ucq.t;
        data : Structure.Instance.t;
        max_extra : int;
      }  (** certain answers of (O, q) over [data], per ontology O *)

  type nonrec evaluation = evaluation = {
    consistent : bool;
    answers : Structure.Element.t list list;
  }

  type verdict = Classified of Protocol.classification | Evaluated of evaluation

  (** A budget trip on one item degrades that item alone — its siblings
      still run to completion. [certified] is what the item had proven
      before tripping; it is schedule-dependent, so deterministic
      renderings must omit it. *)
  type failure = {
    reason : Reasoner.Budget.reason;
    certified : Structure.Element.t list list;
  }

  type outcome = (verdict, failure) result

  type result_one = {
    item_name : string;
    outcome : outcome;
    seconds : float;  (** wall time of this item, on its worker *)
    stats : Reasoner.Stats.t;  (** the work of this item's session *)
    worker : int;  (** pool domain index that processed the item *)
  }

  type report = {
    results : result_one list;  (** submission order *)
    jobs : int;
    seconds : float;  (** wall time of the whole batch *)
    total : Reasoner.Stats.t;  (** per-item stats summed in order *)
  }

  (** [run ?timeout ?fuel ?max_clauses ?jobs task items] processes
      every item on a pool of [jobs] domains (default 1 — a plain
      sequential loop). [timeout] / [fuel] / [max_clauses] bound each
      item separately: the budget is
      created when the item starts on its worker, so deadlines are
      relative to item start, not batch submission. If tracing is
      enabled on the calling domain, each item runs under a private
      collector that is merged into the ambient one in submission
      order, spans tagged with the worker's [domain] index. *)
  val run :
    ?timeout:float ->
    ?fuel:int ->
    ?max_clauses:int ->
    ?jobs:int ->
    task ->
    item list ->
    report

  (** The most severe budget reason across items ([Timeout] over
      [Fuel]), if any tripped — drives the CLI exit code. *)
  val worst_failure : report -> Reasoner.Budget.reason option
end
