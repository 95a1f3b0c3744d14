(* Hierarchical tracing: spans (named intervals with attributes and a
   parent) plus a bounded ring buffer of instant events. One collector
   is installed per domain; when none is installed every entry point
   is a no-op whose cost is a DLS load and branch — the reasoning
   stack is instrumented unconditionally and relies on this.

   Invariants the exporters and tests lean on:
   - timestamps come only from Obs.Clock (monotone), and only at span
     open/close and event emission — never from inside solver-critical
     sections (the instrumented modules guarantee the placement, this
     module guarantees there is no other clock read);
   - every span opened by [with_span] is closed exactly once, on both
     the normal and the exceptional exit (so traces of budget-tripped
     runs have no dangling spans);
   - span ids are dense 0..n-1 in opening order, and a child's id is
     greater than its parent's. *)

type attr =
  | Str of string
  | Int of int
  | Float of float
  | Bool of bool

type span = {
  id : int;
  parent : int;  (* -1 for roots *)
  name : string;
  start_s : float;  (* Clock.now at open *)
  mutable dur_s : float;  (* -1.0 while open *)
  mutable attrs : (string * attr) list;  (* reverse insertion order *)
  mutable status : string option;  (* None = ok *)
}

type event = {
  ts_s : float;
  span_id : int;  (* enclosing open span, -1 if none *)
  ename : string;
  eattrs : (string * attr) list;
}

type t = {
  mutable spans : span array;
  mutable nspans : int;
  ring : event option array;
  mutable nevents : int;  (* total ever emitted; ring keeps the tail *)
  mutable stack : int list;  (* open span ids, innermost first *)
}

let default_ring_capacity = 4096

let create ?(ring_capacity = default_ring_capacity) () =
  {
    spans = [||];
    nspans = 0;
    ring = Array.make (max ring_capacity 1) None;
    nevents = 0;
    stack = [];
  }

(* ------------------------------------------------------------------ *)
(* The ambient collector                                                *)
(* ------------------------------------------------------------------ *)

(* The installed collector is DOMAIN-LOCAL: a collector is a
   single-writer structure (span array, stack, ring), so sharing one
   across domains would race on every record. Each worker domain starts
   with no collector; a parallel runner that wants worker traces runs
   each item under [collect] on the worker and merges the per-item
   collectors into the parent's at join via [absorb] (tagging the
   adopted roots with a [domain] attribute). See DESIGN.md §5,
   "Domain-locality invariants". *)

let state : t option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let install c = Domain.DLS.set state (Some c)

let uninstall () =
  let c = Domain.DLS.get state in
  Domain.DLS.set state None;
  c

let active () = Domain.DLS.get state
let enabled () = Option.is_some (Domain.DLS.get state)

(* [collect f] runs [f] under a fresh installed collector and returns
   its result together with the collector (uninstalled again), restoring
   whatever was installed before. *)
let collect ?ring_capacity f =
  let previous = Domain.DLS.get state in
  let c = create ?ring_capacity () in
  Domain.DLS.set state (Some c);
  let r =
    Fun.protect ~finally:(fun () -> Domain.DLS.set state previous) f
  in
  (r, c)

(* Classifiers mapping exceptions to span-status labels, registered by
   client libraries (e.g. Reasoner.Budget maps its Exhausted trips to
   "timeout"/"out_of_fuel"). First match wins; the fallback is the
   printed exception. Registration happens at module initialisation on
   the main domain, before any worker can spawn — spawned domains
   observe the completed list through the domain-spawn happens-before
   edge, so the plain ref is safe. *)
let exn_labels : (exn -> string option) list ref = ref []
let register_exn_label f = exn_labels := f :: !exn_labels

let label_of_exn exn =
  match List.find_map (fun f -> f exn) !exn_labels with
  | Some l -> l
  | None -> Printexc.to_string exn

(* ------------------------------------------------------------------ *)
(* Recording                                                            *)
(* ------------------------------------------------------------------ *)

let grow c =
  if c.nspans = Array.length c.spans then begin
    let cap = max 64 (2 * Array.length c.spans) in
    let bigger =
      Array.make cap
        { id = -1; parent = -1; name = ""; start_s = 0.0; dur_s = 0.0;
          attrs = []; status = None }
    in
    Array.blit c.spans 0 bigger 0 c.nspans;
    c.spans <- bigger
  end

let open_span c name attrs =
  grow c;
  let id = c.nspans in
  let parent = match c.stack with [] -> -1 | p :: _ -> p in
  c.spans.(id) <-
    { id; parent; name; start_s = Clock.now (); dur_s = -1.0;
      attrs = List.rev attrs; status = None };
  c.nspans <- id + 1;
  c.stack <- id :: c.stack;
  id

let close_span c id status =
  let s = c.spans.(id) in
  if s.dur_s < 0.0 then begin
    s.dur_s <- Clock.now () -. s.start_s;
    (match status with
    | Some _ when s.status = None -> s.status <- status
    | _ -> ())
  end;
  (* Pop through [id]: with_span pairs opens and closes, so the stack
     prefix above [id] can only be spans abandoned by an exception that
     bypassed their closer — close them too rather than leak them. *)
  let rec pop = function
    | [] -> []
    | top :: rest ->
        if top = id then rest
        else begin
          let o = c.spans.(top) in
          if o.dur_s < 0.0 then o.dur_s <- Clock.now () -. o.start_s;
          pop rest
        end
  in
  c.stack <- pop c.stack

let with_span ?(attrs = []) name f =
  match Domain.DLS.get state with
  | None -> f ()
  | Some c -> (
      let id = open_span c name attrs in
      match f () with
      | v ->
          close_span c id None;
          v
      | exception exn ->
          close_span c id (Some (label_of_exn exn));
          raise exn)

let event ?(attrs = []) name =
  match Domain.DLS.get state with
  | None -> ()
  | Some c ->
      let span_id = match c.stack with [] -> -1 | s :: _ -> s in
      let e = { ts_s = Clock.now (); span_id; ename = name; eattrs = attrs } in
      c.ring.(c.nevents mod Array.length c.ring) <- Some e;
      c.nevents <- c.nevents + 1

let add_attr name v =
  match Domain.DLS.get state with
  | None -> ()
  | Some c -> (
      match c.stack with
      | [] -> ()
      | id :: _ ->
          let s = c.spans.(id) in
          s.attrs <- (name, v) :: s.attrs)

let set_status status =
  match Domain.DLS.get state with
  | None -> ()
  | Some c -> (
      match c.stack with
      | [] -> ()
      | id :: _ -> c.spans.(id).status <- Some status)

(* ------------------------------------------------------------------ *)
(* Introspection                                                        *)
(* ------------------------------------------------------------------ *)

let spans c = Array.to_list (Array.sub c.spans 0 c.nspans)

let events c =
  let cap = Array.length c.ring in
  let first = max 0 (c.nevents - cap) in
  List.filter_map
    (fun i -> c.ring.(i mod cap))
    (List.init (c.nevents - first) (fun k -> first + k))

let dropped_events c = max 0 (c.nevents - Array.length c.ring)
let span_count c = c.nspans
let open_spans c = List.length c.stack

(* Structural well-formedness: every span closed, parents opened before
   and closed after their children (within float resolution), parent
   ids smaller than child ids. *)
let well_formed c =
  c.stack = []
  && List.for_all
       (fun s ->
         s.dur_s >= 0.0
         && (s.parent = -1
            || s.parent < s.id
               &&
               let p = c.spans.(s.parent) in
               p.start_s <= s.start_s
               && p.start_s +. p.dur_s >= s.start_s +. s.dur_s))
       (spans c)

(* ------------------------------------------------------------------ *)
(* Cross-collector merge                                                *)
(* ------------------------------------------------------------------ *)

(* [absorb ~into child] appends [child]'s record into [into]: span ids
   shift by [into]'s span count (keeping them dense, in adoption order,
   with parent < id), [child]'s roots become children of [into]'s
   innermost open span (or roots, if none is open) and carry [attrs] —
   the parallel runner tags them with the worker's domain index and the
   item name. Events replay oldest-first with remapped span ids.
   Timestamps need no adjustment: Clock.now is monotone across domains.
   [child] must be quiescent (its recording run finished) and is not
   modified. *)
let absorb ?(attrs = []) ~into child =
  let off = into.nspans in
  let adopt = match into.stack with [] -> -1 | p :: _ -> p in
  for i = 0 to child.nspans - 1 do
    grow into;
    let s = child.spans.(i) in
    let root = s.parent = -1 in
    into.spans.(into.nspans) <-
      {
        s with
        id = s.id + off;
        parent = (if root then adopt else s.parent + off);
        attrs = (if root then List.rev_append attrs s.attrs else s.attrs);
      };
    into.nspans <- into.nspans + 1
  done;
  List.iter
    (fun e ->
      let span_id = if e.span_id = -1 then adopt else e.span_id + off in
      into.ring.(into.nevents mod Array.length into.ring) <-
        Some { e with span_id };
      into.nevents <- into.nevents + 1)
    (events child)
