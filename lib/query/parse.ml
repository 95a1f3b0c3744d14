(* A small text format for (U)CQs:

     q(x) <- R(x,y), A(y)
     q(x) <- B(x) | q(x) <- C(x)      (UCQ with '|' between disjuncts)

   Lower-case arguments are variables, capitalised or quoted arguments
   are constants. *)

exception Parse_error of string

let error fmt = Fmt.kstr (fun s -> raise (Parse_error s)) fmt

let parse_term s =
  let s = String.trim s in
  if s = "" then error "empty term"
  else if s.[0] = '\'' then
    if String.length s >= 2 && s.[String.length s - 1] = '\'' then
      Logic.Term.Const (String.sub s 1 (String.length s - 2))
    else error "unterminated quoted constant %s" s
  else if s.[0] >= 'a' && s.[0] <= 'z' then Logic.Term.Var s
  else Logic.Term.Const s

(* "R(t1,...,tk)" *)
let parse_atom s =
  let s = String.trim s in
  match String.index_opt s '(' with
  | None -> error "expected an atom, found %S" s
  | Some i ->
      let rel = String.trim (String.sub s 0 i) in
      let rest = String.sub s (i + 1) (String.length s - i - 1) in
      let rest = String.trim rest in
      let rest =
        match String.rindex_opt rest ')' with
        | Some j when j = String.length rest - 1 ->
            String.sub rest 0 (String.length rest - 1)
        | _ -> error "missing ')' in %S" s
      in
      let args = String.split_on_char ',' rest |> List.map parse_term in
      (rel, args)

(* Split on top-level commas (atoms contain commas inside parens). *)
let split_atoms s =
  let parts = ref [] in
  let depth = ref 0 in
  let start = ref 0 in
  String.iteri
    (fun i c ->
      match c with
      | '(' -> incr depth
      | ')' -> decr depth
      | ',' when !depth = 0 ->
          parts := String.sub s !start (i - !start) :: !parts;
          start := i + 1
      | _ -> ())
    s;
  parts := String.sub s !start (String.length s - !start) :: !parts;
  List.rev_map String.trim !parts |> List.rev |> List.filter (fun p -> p <> "")

(* head "<-" body *)
let parse_cq s =
  let idx =
    let rec find i =
      if i + 1 >= String.length s then error "missing '<-' in %S" s
      else if s.[i] = '<' && s.[i + 1] = '-' then i
      else find (i + 1)
    in
    find 0
  in
  let head = String.trim (String.sub s 0 idx) in
  let body = String.trim (String.sub s (idx + 2) (String.length s - idx - 2)) in
  let name, answer =
    if String.contains head '(' then begin
      let rel, args = parse_atom head in
      ( rel,
        List.map
          (function
            | Logic.Term.Var v -> v
            | Logic.Term.Const c -> error "constant %s in the head" c)
          args )
    end
    else (String.trim head, [])
  in
  let atoms = List.map parse_atom (split_atoms body) in
  Cq.make ~name ~answer atoms

let ucq_of_string s =
  let parts = String.split_on_char '|' s |> List.map String.trim in
  Ucq.make (List.map parse_cq parts)

let cq_of_string s = parse_cq s
