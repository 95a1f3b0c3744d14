module P = Omq.Protocol

type entry =
  | Open of { sid : int; ontology : string; data : string; query : string; max_extra : int }
  | Insert of { sid : int; facts : string }
  | Retract of { sid : int; facts : string }
  | Close of { sid : int }

let sid_of = function
  | Open { sid; _ } | Insert { sid; _ } | Retract { sid; _ } | Close { sid } ->
      sid

(* An [Open] is the open_session wire frame with the journal's session
   id in the frame's ["id"] slot; Insert/Retract/Close already carry the
   sid in their [session] field, so their renderings are byte-identical
   to the id-less wire requests. *)
let render = function
  | Open { sid; ontology; data; query; max_extra } ->
      P.render_request ~id:sid (P.Open_session { ontology; data; query; max_extra })
  | Insert { sid; facts } ->
      P.render_request (P.Insert_facts { session = sid; facts })
  | Retract { sid; facts } ->
      P.render_request (P.Retract_facts { session = sid; facts })
  | Close { sid } -> P.render_request (P.Close_session { session = sid })

let entry_of_line line =
  match P.parse_request line with
  | Ok (Some sid, P.Open_session { ontology; data; query; max_extra }) ->
      Ok (Open { sid; ontology; data; query; max_extra })
  | Ok (None, P.Open_session _) -> Error "open entry without a session id"
  | Ok (_, P.Insert_facts { session; facts }) -> Ok (Insert { sid = session; facts })
  | Ok (_, P.Retract_facts { session; facts }) ->
      Ok (Retract { sid = session; facts })
  | Ok (_, P.Close_session { session }) -> Ok (Close { sid = session })
  | Ok (_, _) -> Error "not a journal operation"
  | Error (_, (_, msg)) -> Error msg

type t = { dir : string; file : string; mutable fd : Unix.file_descr; mutable bytes : int }

let file_of dir = Filename.concat dir "omq.journal"

let open_ dir =
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let file = file_of dir in
  let fd = Unix.openfile file [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644 in
  let bytes = (Unix.fstat fd).Unix.st_size in
  { dir; file; fd; bytes }

let size t = t.bytes

let write_all fd s =
  let b = Bytes.unsafe_of_string s in
  let n = String.length s in
  let rec go off =
    if off < n then go (off + Unix.write fd b off (n - off))
  in
  go 0

let append t e =
  let line = render e ^ "\n" in
  write_all t.fd line;
  Unix.fsync t.fd;
  t.bytes <- t.bytes + String.length line

let load dir =
  let file = file_of dir in
  if not (Sys.file_exists file) then ([], `Ok)
  else begin
    let ic = open_in_bin file in
    let len = in_channel_length ic in
    let raw = really_input_string ic len in
    close_in ic;
    let lines = String.split_on_char '\n' raw in
    (* trailing "" after a final newline is not a line *)
    let lines = List.filter (fun l -> l <> "") lines in
    let n = List.length lines in
    let entries, bad =
      List.fold_left
        (fun (acc, bad) (i, line) ->
          match entry_of_line line with
          | Ok e -> (e :: acc, bad)
          | Error msg ->
              if i = n - 1 then (acc, bad) (* torn tail: never acknowledged *)
              else (acc, Some (Printf.sprintf "line %d: %s" (i + 1) msg)))
        ([], None)
        (List.mapi (fun i l -> (i, l)) lines)
    in
    (List.rev entries, match bad with None -> `Ok | Some m -> `Corrupt m)
  end

(* One fact per line, [R(a,b)], in [compare_fact] order: the canonical
   (deterministic, re-parsable) rendering of a folded data state. *)
let render_instance inst =
  Structure.Instance.facts inst
  |> List.map (fun (f : Structure.Instance.fact) ->
         Printf.sprintf "%s(%s)" f.rel
           (String.concat "," (List.map Structure.Element.to_string f.args)))
  |> String.concat "\n"

(* Folded per-session data. Retraction cannot be expressed by text
   concatenation, so blocks are parsed and folded into a net instance;
   if any block fails to parse (it should not — the daemon validates
   facts before acknowledging, and only acknowledged operations are
   journaled) the session degrades to the historical raw-concatenation
   fold, under which retract blocks are ignored. *)
type data_fold = Net of Structure.Instance.t | Raw of string list

let fold_data state e =
  let parse s = Structure.Parse.instance_of_string_result s in
  match (state, e) with
  | _, `Open data -> (
      match parse data with Ok i -> Net i | Error _ -> Raw [ data ])
  | Net i, `Insert facts -> (
      match parse facts with
      | Ok d -> Net (Structure.Instance.union i d)
      | Error _ -> Raw [ facts; render_instance i ])
  | Net i, `Retract facts -> (
      match parse facts with
      | Ok d ->
          Net
            (Structure.Instance.FactSet.fold Structure.Instance.remove_fact
               (Structure.Instance.fact_set d) i)
      | Error _ -> Net i)
  | Raw ds, `Insert facts -> Raw (facts :: ds)
  | Raw ds, `Retract _ -> Raw ds

let render_data = function
  | Net i -> render_instance i
  | Raw ds -> String.concat "\n" (List.rev ds)

let live_sessions entries =
  let tbl = Hashtbl.create 16 in
  let order = ref [] in
  List.iter
    (fun e ->
      match e with
      | Open { sid; ontology; data; query; max_extra } ->
          if not (Hashtbl.mem tbl sid) then order := sid :: !order;
          Hashtbl.replace tbl sid
            (ontology, fold_data (Raw []) (`Open data), query, max_extra, 1)
      | Insert { sid; facts } -> (
          match Hashtbl.find_opt tbl sid with
          | None -> () (* insert for a closed/unknown session: ignore *)
          | Some (o, ds, q, m, n) ->
              Hashtbl.replace tbl sid (o, fold_data ds (`Insert facts), q, m, n + 1))
      | Retract { sid; facts } -> (
          match Hashtbl.find_opt tbl sid with
          | None -> ()
          | Some (o, ds, q, m, n) ->
              Hashtbl.replace tbl sid (o, fold_data ds (`Retract facts), q, m, n + 1))
      | Close { sid } ->
          Hashtbl.remove tbl sid;
          order := List.filter (fun s -> s <> sid) !order)
    entries;
  List.rev_map
    (fun sid ->
      match Hashtbl.find_opt tbl sid with
      | None -> assert false
      | Some (o, ds, q, m, n) -> (sid, (o, render_data ds, q, m), n))
    !order

let max_sid entries = List.fold_left (fun m e -> max m (sid_of e)) 0 entries

let compact t entries =
  let tmp = t.file ^ ".tmp" in
  let fd = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let bytes =
    List.fold_left
      (fun acc e ->
        let line = render e ^ "\n" in
        write_all fd line;
        acc + String.length line)
      0 entries
  in
  Unix.fsync fd;
  Unix.close fd;
  Unix.rename tmp t.file;
  (* rename is atomic on POSIX; fsync the directory so the rename
     itself survives a crash *)
  (try
     let dfd = Unix.openfile t.dir [ Unix.O_RDONLY ] 0 in
     (try Unix.fsync dfd with Unix.Unix_error _ -> ());
     Unix.close dfd
   with Unix.Unix_error _ -> ());
  Unix.close t.fd;
  t.fd <- Unix.openfile t.file [ Unix.O_WRONLY; Unix.O_APPEND ] 0o644;
  t.bytes <- bytes

let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()
