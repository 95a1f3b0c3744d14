(** Load generator for the serve daemon: N concurrent {!Client}s, each
    opening one session and issuing M unbudgeted evals back to back
    (one request in flight per client — closed-loop load), multiplexed
    on a single [select] loop so the generator itself needs no threads
    or domains.

    Latency is measured per eval with {!Obs.Clock} from write to decoded
    response. Every response is re-rendered id-less and compared byte
    for byte with the spec's [expected] — the check that served answers
    are identical to the sequential CLI's. *)

type spec = {
  open_req : Omq.Protocol.request;  (** must be an [Open_session] *)
  expected : string;
      (** the id-less {!Omq.Protocol.render_response} every eval
          response must equal (see {!Core.expected_eval}) *)
}

type summary = {
  clients : int;  (** specs given, whether or not they connected *)
  queries_per_client : int;
  total : int;  (** evals answered (excludes the opens) *)
  ok : int;  (** complete [Evaled] responses *)
  tripped : int;  (** budget-tripped partials *)
  errors : int;  (** typed rejections *)
  mismatches : int;  (** responses differing from [expected] *)
  connect_failures : int;  (** clients that never established a connection *)
  io_failures : int;
      (** clients dropped mid-run: EOF, read/write error, undecodable
          frame — each ends that one client, never the run *)
  seconds : float;  (** wall time, first open to last response *)
  throughput_rps : float;  (** total / seconds *)
  mean_ms : float;
  p50_ms : float;
  p95_ms : float;
  p99_ms : float;
  max_ms : float;
}

(** [run addr specs ~queries] drives one client per spec. Per-client
    faults — a connection that cannot be established, an EOF or I/O
    error mid-run, an undecodable frame — end that client and are
    counted in [connect_failures] / [io_failures]; the run carries on
    with the survivors (a run where every client failed still returns
    [Ok] with [total = 0]). [Error] is reserved for an unresolvable
    address, an empty spec list, or a full stall (no response anywhere
    for 30 s). *)
val run :
  Daemon.addr -> spec list -> queries:int -> (summary, string) result
