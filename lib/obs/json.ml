(* The repository's one JSON value type (the toolchain ships no JSON
   library): the wire protocol, the trace and metric exporters, the
   logger and the telemetry dump all build [t] values and render them
   once, at the edge. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

let escape s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* Integral floats render without a fraction, others with %.17g
   (round-trip exact). JSON has no NaN or infinity: those render as
   null, so every rendering parses back. *)
let number f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else if Float.is_finite f then Printf.sprintf "%.17g" f
  else "null"

let rec render = function
  | Null -> "null"
  | Bool true -> "true"
  | Bool false -> "false"
  | Num f -> number f
  | Str s -> escape s
  | Arr xs -> "[" ^ String.concat "," (List.map render xs) ^ "]"
  | Obj ms ->
      "{"
      ^ String.concat ","
          (List.map (fun (k, v) -> escape k ^ ":" ^ render v) ms)
      ^ "}"

let member name = function Obj ms -> List.assoc_opt name ms | _ -> None

let rec equal a b =
  match (a, b) with
  | Null, Null -> true
  | Bool x, Bool y -> Bool.equal x y
  | Num x, Num y -> Float.equal x y
  | Str x, Str y -> String.equal x y
  | Arr x, Arr y -> List.equal equal x y
  | Obj x, Obj y ->
      List.equal
        (fun (k1, v1) (k2, v2) -> String.equal k1 k2 && equal v1 v2)
        x y
  | _ -> false

(* A total recursive-descent parser over the raw string. Depth is
   bounded so a hostile frame cannot overflow the stack. *)

exception Bad of int * string

let max_depth = 512

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let fail msg = raise (Bad (!pos, msg)) in
  let advance () = incr pos in
  let skip_ws () =
    while
      !pos < n
      && match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
    do
      advance ()
    done
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected '%c'" c)
  in
  let literal word value =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      value
    end
    else fail (Printf.sprintf "expected '%s'" word)
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string"
      else
        match s.[!pos] with
        | '"' -> advance ()
        | '\\' ->
            advance ();
            (if !pos >= n then fail "unterminated escape"
             else
               match s.[!pos] with
               | '"' -> Buffer.add_char b '"'; advance ()
               | '\\' -> Buffer.add_char b '\\'; advance ()
               | '/' -> Buffer.add_char b '/'; advance ()
               | 'b' -> Buffer.add_char b '\b'; advance ()
               | 'f' -> Buffer.add_char b '\012'; advance ()
               | 'n' -> Buffer.add_char b '\n'; advance ()
               | 'r' -> Buffer.add_char b '\r'; advance ()
               | 't' -> Buffer.add_char b '\t'; advance ()
               | 'u' ->
                   advance ();
                   if !pos + 4 > n then fail "truncated \\u escape";
                   let hex = String.sub s !pos 4 in
                   let code =
                     match int_of_string_opt ("0x" ^ hex) with
                     | Some c -> c
                     | None -> fail "invalid \\u escape"
                   in
                   pos := !pos + 4;
                   (* encode the code point as UTF-8 (surrogates are
                      kept as-is bytes of their replacement) *)
                   if code < 0x80 then Buffer.add_char b (Char.chr code)
                   else if code < 0x800 then begin
                     Buffer.add_char b (Char.chr (0xC0 lor (code lsr 6)));
                     Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
                   end
                   else begin
                     Buffer.add_char b (Char.chr (0xE0 lor (code lsr 12)));
                     Buffer.add_char b
                       (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
                     Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
                   end
               | c -> fail (Printf.sprintf "invalid escape '\\%c'" c));
            go ()
        | c ->
            Buffer.add_char b c;
            advance ();
            go ()
    in
    go ();
    Buffer.contents b
  in
  let parse_number () =
    let start = !pos in
    let consume p =
      while !pos < n && p s.[!pos] do
        advance ()
      done
    in
    if peek () = Some '-' then advance ();
    consume (function '0' .. '9' -> true | _ -> false);
    if peek () = Some '.' then begin
      advance ();
      consume (function '0' .. '9' -> true | _ -> false)
    end;
    (match peek () with
    | Some ('e' | 'E') ->
        advance ();
        (match peek () with
        | Some ('+' | '-') -> advance ()
        | _ -> ());
        consume (function '0' .. '9' -> true | _ -> false)
    | _ -> ());
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> f
    | None -> fail "invalid number"
  in
  let rec parse_value depth =
    if depth > max_depth then fail "nesting too deep";
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '"' -> Str (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          Arr []
        end
        else begin
          let items = ref [ parse_value (depth + 1) ] in
          skip_ws ();
          while peek () = Some ',' do
            advance ();
            items := parse_value (depth + 1) :: !items;
            skip_ws ()
          done;
          expect ']';
          Arr (List.rev !items)
        end
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else begin
          let entry () =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value (depth + 1) in
            (k, v)
          in
          let items = ref [ entry () ] in
          skip_ws ();
          while peek () = Some ',' do
            advance ();
            items := entry () :: !items;
            skip_ws ()
          done;
          expect '}';
          Obj (List.rev !items)
        end
    | Some ('-' | '0' .. '9') -> Num (parse_number ())
    | Some c -> fail (Printf.sprintf "unexpected '%c'" c)
  in
  match
    let v = parse_value 0 in
    skip_ws ();
    if !pos <> n then fail "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Bad (at, msg) ->
      Error (Printf.sprintf "offset %d: %s" at msg)
