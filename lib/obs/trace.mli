(** Hierarchical spans with monotonic timestamps, attributes and a
    bounded event ring buffer.

    A {!t} is a collector. At most one is installed per domain
    ({!install} — the ambient slot is domain-local state, so worker
    domains trace independently and merge via {!absorb}); when none is,
    every recording entry point
    ({!with_span}, {!event}, {!add_attr}, {!set_status}) is a no-op
    costing a single load and branch, so the reasoning stack carries its
    instrumentation unconditionally.

    Collector invariants (relied on by {!Export} and the test suite):
    timestamps are read only from {!Clock} and only at span boundaries
    and event emission; every span opened by {!with_span} is closed
    exactly once, including on the exceptional exit (budget-tripped runs
    export with no dangling spans); span ids are dense [0..n-1] in
    opening order with [parent < id]. *)

type attr = Str of string | Int of int | Float of float | Bool of bool

type span = {
  id : int;
  parent : int;  (** -1 for roots *)
  name : string;
  start_s : float;  (** {!Clock.now} at open *)
  mutable dur_s : float;  (** duration in seconds; -1.0 while open *)
  mutable attrs : (string * attr) list;  (** reverse insertion order *)
  mutable status : string option;  (** [None] = ok; e.g. ["timeout"] *)
}

type event = {
  ts_s : float;
  span_id : int;  (** the enclosing open span, -1 at top level *)
  ename : string;
  eattrs : (string * attr) list;
}

type t

(** [create ()] builds an empty collector. [ring_capacity] bounds the
    event buffer (default 4096): once full, the oldest events are
    overwritten and counted in {!dropped_events}. Spans are unbounded. *)
val create : ?ring_capacity:int -> unit -> t

(** {2 The ambient collector} *)

val install : t -> unit

(** Remove and return the installed collector, if any. *)
val uninstall : unit -> t option

val active : unit -> t option
val enabled : unit -> bool

(** [collect f] runs [f] under a fresh installed collector, restores the
    previously installed one (even on an exception), and returns [f]'s
    result with the filled collector. *)
val collect : ?ring_capacity:int -> (unit -> 'a) -> 'a * t

(** Register a classifier mapping exceptions to span-status labels
    (first matching classifier wins; fallback is the printed
    exception). Used by [Reasoner.Budget] to label trip unwinds
    ["timeout"] / ["out_of_fuel"]. *)
val register_exn_label : (exn -> string option) -> unit

(** {2 Recording} *)

(** [with_span name f] runs [f] inside a fresh span, a child of the
    innermost open span. The span is closed when [f] returns or raises;
    on a raise its status is set from the registered exception
    classifiers. No-op (just [f ()]) when no collector is installed. *)
val with_span : ?attrs:(string * attr) list -> string -> (unit -> 'a) -> 'a

(** Record an instant event in the ring buffer, attached to the
    innermost open span. *)
val event : ?attrs:(string * attr) list -> string -> unit

(** Attach an attribute to the innermost open span. *)
val add_attr : string -> attr -> unit

(** Set the status of the innermost open span (kept on close unless the
    close itself carries a status and none was set). *)
val set_status : string -> unit

(** {2 Merging} *)

(** [absorb ~into child] appends the finished collector [child]'s spans
    and events into [into]: span ids are shifted past [into]'s
    (staying dense with [parent < id]), [child]'s root spans are
    adopted by [into]'s innermost open span (or become roots) and are
    tagged with [attrs]. Used by the parallel corpus runner to merge
    per-worker collectors into the parent's at pool join, tagging each
    adopted root with its [domain] index. Timestamps are comparable
    across collectors because {!Clock.now} is monotone across domains. *)
val absorb : ?attrs:(string * attr) list -> into:t -> t -> unit

(** {2 Introspection} *)

(** All spans in opening order (closed and still-open ones). *)
val spans : t -> span list

(** Retained events, oldest first. *)
val events : t -> event list

(** Events overwritten by ring-buffer wraparound. *)
val dropped_events : t -> int

val span_count : t -> int

(** Number of currently open spans (0 once tracing has unwound). *)
val open_spans : t -> int

(** Every span closed; children contained in their parents. *)
val well_formed : t -> bool
