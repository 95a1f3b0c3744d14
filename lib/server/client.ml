module P = Omq.Protocol

type t = {
  fd : Unix.file_descr;
  inbuf : Buffer.t;
  chunk : Bytes.t;
  mutable next_id : int;
  mutable closed : bool;
}

(* Jittered exponential backoff: attempt [n] sleeps uniformly in
   [d/2, d] for d = min(1s, base * 2^n) — equal jitter, so concurrent
   clients spread out instead of thundering back in lockstep. *)
let rng = lazy (Random.State.make_self_init ())

let backoff_sleep ~base n =
  let d = Float.min 1.0 (base *. (2.0 ** float_of_int n)) in
  let r = Random.State.float (Lazy.force rng) 1.0 in
  Unix.sleepf ((d /. 2.) +. (r *. d /. 2.))

let connect ?(attempts = 50) ?(base_delay = 0.02) addr =
  match Daemon.sockaddr_of addr with
  | exception Not_found -> Error (Fmt.str "cannot resolve %a" Daemon.pp_addr addr)
  | domain, sa ->
      let rec go n =
        let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
        match Unix.connect fd sa with
        | () ->
            Ok
              {
                fd;
                inbuf = Buffer.create 512;
                chunk = Bytes.create 65536;
                next_id = 0;
                closed = false;
              }
        | exception Unix.Unix_error (e, _, _) ->
            (try Unix.close fd with Unix.Unix_error _ -> ());
            let retryable =
              match e with
              | Unix.ECONNREFUSED | Unix.ENOENT | Unix.EAGAIN
              | Unix.ECONNRESET ->
                  true
              | _ -> false
            in
            if retryable && n < attempts - 1 then begin
              backoff_sleep ~base:base_delay n;
              go (n + 1)
            end
            else
              Error
                (Fmt.str "connect %a: %s" Daemon.pp_addr addr
                   (Unix.error_message e))
      in
      go 0

let fd t = t.fd

let close t =
  if not t.closed then begin
    t.closed <- true;
    try Unix.close t.fd with Unix.Unix_error _ -> ()
  end

let write_all t s =
  let len = String.length s in
  let rec go pos =
    if pos >= len then Ok ()
    else
      match Unix.write_substring t.fd s pos (len - pos) with
      | n -> go (pos + n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go pos
      | exception Unix.Unix_error (e, _, _) ->
          Error (Fmt.str "write: %s" (Unix.error_message e))
  in
  go 0

(* The first complete line buffered, if any; the tail stays buffered. *)
let take_line t =
  let data = Buffer.contents t.inbuf in
  match String.index_opt data '\n' with
  | None -> None
  | Some i ->
      Buffer.clear t.inbuf;
      Buffer.add_substring t.inbuf data (i + 1) (String.length data - i - 1);
      Some (String.sub data 0 i)

(* One [read] into the buffer; an interrupted read adds nothing. *)
let fill t =
  match Unix.read t.fd t.chunk 0 (Bytes.length t.chunk) with
  | 0 -> Error "connection closed by server"
  | n ->
      Buffer.add_subbytes t.inbuf t.chunk 0 n;
      Ok ()
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> Ok ()
  | exception Unix.Unix_error (e, _, _) ->
      Error (Fmt.str "read: %s" (Unix.error_message e))

let ( let* ) = Result.bind

let rec read_line t =
  match take_line t with
  | Some line -> Ok line
  | None ->
      let* () = fill t in
      read_line t

let read_lines t =
  let* () = fill t in
  let rec lines acc =
    match take_line t with
    | Some line -> lines (line :: acc)
    | None -> List.rev acc
  in
  Ok (lines [])

let raw t line =
  let* () = write_all t (line ^ "\n") in
  read_line t

(* A request frame under a fresh id. *)
let frame t req =
  let id = t.next_id in
  t.next_id <- id + 1;
  (id, P.render_request ~id req ^ "\n")

let send t req = write_all t (snd (frame t req))

(* Retryable rejections (overloaded / worker_lost) are the daemon's
   promise that the request had no effect; resending the {e same} frame
   — same id — is the idempotent retry the protocol contract allows. *)
let call ?(retries = 0) ?(base_delay = 0.02) t req =
  let id, frame = frame t req in
  let rec attempt n =
    let* () = write_all t frame in
    let rec await () =
      let* line = read_line t in
      match P.parse_response line with
      | Ok (Some rid, resp) when rid = id -> Ok resp
      | Ok (_, _) -> await ()
      | Error (_, (_, msg)) -> Error (Fmt.str "bad response frame: %s" msg)
    in
    let* resp = await () in
    match resp with
    | P.Rejected { kind; _ } when P.retryable kind && n < retries ->
        backoff_sleep ~base:base_delay n;
        attempt (n + 1)
    | _ -> Ok resp
  in
  attempt 0
