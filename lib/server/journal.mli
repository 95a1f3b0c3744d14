(** Append-only session journal: the daemon's crash-recovery log.

    Every state-changing, acknowledged operation — session open, fact
    insertion, session close — is appended as one newline-terminated
    JSON line and [fsync]'d {e before} the acknowledgement is sent
    (journal-before-ack). Entries reuse {!Omq.Protocol}'s request codec
    byte-for-byte: an [Open] line is exactly the [open_session] wire
    frame that caused it, with the frame ["id"] carrying the {e
    assigned} session id (on the wire that slot echoes the client's
    request id; in the journal it names the session the entry belongs
    to). A journal is therefore readable by the same tooling as a wire
    capture.

    Crash semantics: the process may die at any point. A torn final
    line (crash mid-append) is skipped by {!load} — by
    journal-before-ack, that operation was never acknowledged, so
    dropping it is correct. Compaction ({!compact}) rewrites the log to
    one [Open] per live session via tmp + [fsync] + [rename], so a
    crash during compaction leaves either the old or the new journal,
    never a mix. *)

type entry =
  | Open of { sid : int; ontology : string; data : string; query : string; max_extra : int }
  | Insert of { sid : int; facts : string }
  | Retract of { sid : int; facts : string }
  | Close of { sid : int }

val render : entry -> string

(** Parse one journal line. [Error] covers both unparsable lines and
    well-formed frames that are not journal operations. *)
val entry_of_line : string -> (entry, string) result

type t

(** [open_ dir] creates [dir] if needed and opens (or creates)
    [dir/omq.journal] for appending. *)
val open_ : string -> t

(** Bytes currently in the journal file. *)
val size : t -> int

(** Append one entry and [fsync]. Raises [Unix.Unix_error] on I/O
    failure — the caller must not acknowledge the operation if this
    raises. *)
val append : t -> entry -> unit

(** Entries of an existing journal, oldest first. A torn (unparsable)
    {e final} line is skipped silently; an unparsable line {e followed
    by} valid entries is reported via [`Corrupt] after the prefix that
    was readable. *)
val load : string -> entry list * [ `Ok | `Corrupt of string ]

(** Replay-fold a journal into its live sessions: for each session that
    was opened and not closed, the [Open] parameters with [data]
    replaced by the {e net} instance text — original data plus every
    inserted block minus every retracted block, rendered one fact per
    line in canonical order — plus how many entries contributed.
    Sessions are listed in open order. Should a data block fail to parse
    (impossible for journals written by the daemon, which validates
    before acknowledging), that session degrades to the historical
    concatenation fold and its retract entries are ignored. *)
val live_sessions :
  entry list ->
  (int * (string * string * string * int) * int) list
(* sid, (ontology, data, query, max_extra), entries folded *)

(** Largest session id mentioned, or 0 for an empty journal. *)
val max_sid : entry list -> int

(** Atomically replace the journal's contents with [entries] (tmp +
    [fsync] + [rename]); the handle stays open on the new file. *)
val compact : t -> entry list -> unit

val close : t -> unit
