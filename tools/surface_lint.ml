(* Exact exported-surface lint over the typed trees that
   `dune build @check` writes. Every `val` of a lib/**/*.mli must be
   used by some module other than its own (under lib bin bench test
   examples benchmark), or be listed in tools/surface_allowlist.txt as a
   `path value reason` line.

   A use is a resolved reference, not a name: each value identifier of
   every .cmt is resolved to the compilation unit and the value it
   denotes, following module aliases (`module S = Reasoner.Stats`, and
   aliases declared in an interface such as `module Json = Obs.Json`).
   A module passed whole (a functor argument, `include M`, a packed
   first-class module) uses every value in it.

   Values that only tests use pass, and are printed as a separate list
   on stdout. Offending values and stale allowlist entries go to stderr
   and make the exit status 1.

   Run it through tools/surface_lint.sh, which builds the typed trees
   first. *)

open Typedtree

let build = "_build/default"
let roots = [ "lib"; "bin"; "bench"; "test"; "examples"; "benchmark" ]
let allowlist = "tools/surface_allowlist.txt"

(* ---------------------------------------------------------------- *)
(* Typed trees on disk                                                *)
(* ---------------------------------------------------------------- *)

let rec files_under dir acc =
  match Sys.readdir dir with
  | exception Sys_error _ -> acc
  | names ->
      Array.sort compare names;
      Array.fold_left
        (fun acc n ->
          let p = Filename.concat dir n in
          if Sys.is_directory p then files_under p acc else p :: acc)
        acc names

let typed_trees ext =
  List.concat_map
    (fun r -> files_under (Filename.concat build r) [])
    roots
  |> List.filter (fun p -> Filename.check_suffix p ext)
  |> List.sort compare

(* The unit a typed tree belongs to: [reasoner__Ground.cmt] is
   [Reasoner__Ground]. *)
let unit_of_file p =
  String.capitalize_ascii (Filename.remove_extension (Filename.basename p))

(* Units named by a path: [Reasoner__Ground] and the dune alias module's
   [Reasoner.Ground] are the same unit, and [Omq__] is the alias module
   of a library whose main module is [Omq]. *)
let split_unit_name s =
  let n = String.length s in
  let rec find i =
    if i + 1 >= n then None
    else if s.[i] = '_' && s.[i + 1] = '_' then Some i
    else find (i + 1)
  in
  match find 0 with
  | Some i when i > 0 ->
      let rest = String.sub s (i + 2) (n - i - 2) in
      String.sub s 0 i :: (if rest = "" then [] else [ rest ])
  | _ -> [ s ]

(* ---------------------------------------------------------------- *)
(* Exported values and interface aliases                              *)
(* ---------------------------------------------------------------- *)

type export = {
  mli : string;  (* source interface *)
  unit_ : string;
  path : string list;  (* the value's path inside its unit *)
  mutable used : bool;  (* by a module outside tests *)
  mutable test_used : bool;
}

let units : (string, unit) Hashtbl.t = Hashtbl.create 256

(* (unit, module path inside it) -> the path it aliases *)
let sig_aliases : (string * string list, Path.t) Hashtbl.t = Hashtbl.create 64

let exports : export list ref = ref []

let rec scan_signature ~mli ~unit_ prefix (sg : signature) =
  List.iter
    (fun item ->
      match item.sig_desc with
      | Tsig_value vd ->
          exports :=
            {
              mli;
              unit_;
              path = prefix @ [ Ident.name vd.val_id ];
              used = false;
              test_used = false;
            }
            :: !exports
      | Tsig_module { md_id = Some id; md_type; _ } -> (
          let sub = prefix @ [ Ident.name id ] in
          match md_type.mty_desc with
          | Tmty_signature sg -> scan_signature ~mli ~unit_ sub sg
          | Tmty_alias (p, _) -> Hashtbl.replace sig_aliases (unit_, sub) p
          | _ -> ())
      | _ -> ())
    sg.sig_items

let load_interfaces () =
  List.iter
    (fun file ->
      let cmt = Cmt_format.read_cmt file in
      let unit_ = unit_of_file file in
      Hashtbl.replace units unit_ ();
      match (cmt.cmt_annots, cmt.cmt_sourcefile) with
      | Interface sg, Some mli when String.starts_with ~prefix:"lib/" mli ->
          scan_signature ~mli ~unit_ [] sg
      | _ -> ())
    (typed_trees ".cmti");
  (* units without an interface are still units *)
  List.iter
    (fun file -> Hashtbl.replace units (unit_of_file file) ())
    (typed_trees ".cmt");
  exports := List.rev !exports

(* ---------------------------------------------------------------- *)
(* Resolution                                                         *)
(* ---------------------------------------------------------------- *)

(* The components of [p], expanding local module aliases with [local];
   [None] under a local module that is no alias. *)
let rec flatten ~local (p : Path.t) =
  match p with
  | Pident id when Ident.global id -> Some [ Ident.name id ]
  | Pident id -> Option.bind (local id) (flatten ~local)
  | Pdot (p, s) -> Option.map (fun c -> c @ [ s ]) (flatten ~local p)
  | _ -> None

(* [comps] as (unit, path inside it), following interface aliases. *)
let rec resolve fuel comps =
  let comps = match comps with c :: rest -> split_unit_name c @ rest | [] -> [] in
  let located =
    match comps with
    | a :: b :: rest when Hashtbl.mem units (a ^ "__" ^ b) ->
        Some (a ^ "__" ^ b, rest)
    | a :: rest when Hashtbl.mem units a -> Some (a, rest)
    | _ -> None
  in
  match located with
  | None -> None
  | Some (u, rest) ->
      (* the longest proper module prefix of [rest] that is an alias *)
      let rec follow before = function
        | [] -> Some (u, rest)
        | m :: after -> (
            let prefix = before @ [ m ] in
            match Hashtbl.find_opt sig_aliases (u, prefix) with
            | Some target when fuel > 0 -> (
                match flatten ~local:(fun _ -> None) target with
                | Some t -> resolve (fuel - 1) (t @ after)
                | None -> Some (u, rest))
            | _ -> follow prefix after)
      in
      follow [] rest

let rec is_prefix pre l =
  match (pre, l) with
  | [], _ -> true
  | x :: xs, y :: ys -> x = y && is_prefix xs ys
  | _ :: _, [] -> false

(* ---------------------------------------------------------------- *)
(* Uses                                                               *)
(* ---------------------------------------------------------------- *)

let by_key : (string * string list, export) Hashtbl.t = Hashtbl.create 1024

let mark ~test e = if test then e.test_used <- true else e.used <- true

let use_value ~own ~test (u, path) =
  if u <> own then Option.iter (mark ~test) (Hashtbl.find_opt by_key (u, path))

let use_module ~own ~test (u, prefix) =
  if u <> own then
    List.iter
      (fun e -> if e.unit_ = u && is_prefix prefix e.path then mark ~test e)
      !exports

(* The references of one implementation. Local module aliases are
   recorded as they are met and expanded when a path goes through one;
   their right-hand sides are not whole-module uses. *)
let scan_implementation ~own ~test (str : structure) =
  let aliases : (Ident.t, Path.t) Hashtbl.t = Hashtbl.create 16 in
  let local = Hashtbl.find_opt aliases in
  let resolve p = Option.bind (flatten ~local p) (resolve 8) in
  let rec alias_target (me : module_expr) =
    match me.mod_desc with
    | Tmod_ident (p, _) -> Some p
    | Tmod_constraint (me, _, _, _) -> alias_target me
    | _ -> None
  in
  let bind id me =
    match (id, alias_target me) with
    | Some id, Some p ->
        Hashtbl.replace aliases id p;
        true
    | _ -> false
  in
  let open Tast_iterator in
  let super = default_iterator in
  let expr it (e : expression) =
    match e.exp_desc with
    | Texp_ident (p, _, _) -> Option.iter (use_value ~own ~test) (resolve p)
    | Texp_letmodule (id, _, _, me, body) ->
        if not (bind id me) then it.module_expr it me;
        it.expr it body
    | _ -> super.expr it e
  in
  let module_binding it (mb : module_binding) =
    if not (bind mb.mb_id mb.mb_expr) then super.module_binding it mb
  in
  let module_expr it (me : module_expr) =
    match me.mod_desc with
    | Tmod_ident (p, _) -> Option.iter (use_module ~own ~test) (resolve p)
    | _ -> super.module_expr it me
  in
  (* [open M] makes names visible; it uses nothing by itself *)
  let open_declaration it (od : open_declaration) =
    match od.open_expr.mod_desc with
    | Tmod_ident _ -> ()
    | _ -> super.open_declaration it od
  in
  let it = { super with expr; module_binding; module_expr; open_declaration } in
  it.structure it str

let is_test src =
  String.starts_with ~prefix:"test/" src
  || String.starts_with ~prefix:"test_" (Filename.basename src)

let load_implementations () =
  List.iter (fun e -> Hashtbl.replace by_key (e.unit_, e.path) e) !exports;
  List.iter
    (fun file ->
      let cmt = Cmt_format.read_cmt file in
      match (cmt.cmt_annots, cmt.cmt_sourcefile) with
      | Implementation str, Some src when Filename.check_suffix src ".ml" ->
          scan_implementation ~own:(unit_of_file file) ~test:(is_test src) str
      | _ -> ())
    (typed_trees ".cmt")

(* ---------------------------------------------------------------- *)
(* Report                                                             *)
(* ---------------------------------------------------------------- *)

let name e = String.concat "." e.path

(* [path value reason] lines; blank lines and # comments skipped. *)
let read_allowlist () =
  match open_in allowlist with
  | exception Sys_error _ -> []
  | ic ->
      let rec go acc =
        match input_line ic with
        | exception End_of_file ->
            close_in ic;
            List.rev acc
        | line -> (
            let line = String.trim line in
            if line = "" || line.[0] = '#' then go acc
            else
              match String.split_on_char ' ' line with
              | path :: v :: reason -> go ((path, v, String.concat " " reason) :: acc)
              | _ -> go ((line, "", "") :: acc))
      in
      go []

let () =
  if not (Sys.file_exists build) then begin
    prerr_endline "no _build/default: run `dune build @check` first";
    exit 2
  end;
  load_interfaces ();
  load_implementations ();
  let allowed = read_allowlist () in
  let status = ref 0 and flagged = ref 0 in
  List.iter
    (fun e ->
      if
        (not (e.used || e.test_used))
        && not (List.exists (fun (p, v, _) -> p = e.mli && v = name e) allowed)
      then begin
        Printf.eprintf "%s: val %s is used by no module outside its own\n"
          e.mli (name e);
        incr flagged;
        status := 1
      end)
    !exports;
  (* An allowlist entry must give a reason, name a val that still
     exists, and still lack an outside user, so the list cannot rot. *)
  List.iter
    (fun (p, v, reason) ->
      if reason = "" then begin
        Printf.eprintf "%s: entry '%s %s' has no reason\n" allowlist p v;
        status := 1
      end;
      match List.find_opt (fun e -> e.mli = p && name e = v) !exports with
      | None ->
          Printf.eprintf "%s: '%s %s' is not a val of %s\n" allowlist p v p;
          status := 1
      | Some e when e.used || e.test_used ->
          Printf.eprintf "%s: '%s %s' has an outside user; drop the entry\n"
            allowlist p v;
          status := 1
      | Some _ -> ())
    allowed;
  let test_only = List.filter (fun e -> e.test_used && not e.used) !exports in
  if test_only <> [] then begin
    Printf.printf "%d exported value(s) used only by tests (allowed):\n"
      (List.length test_only);
    List.iter (fun e -> Printf.printf "  %s: val %s\n" e.mli (name e)) test_only
  end;
  if !flagged > 0 then
    Printf.eprintf
      "%d exported value(s) without an outside user: use it, drop it from \
       the .mli, delete it, or allowlist it with a reason\n"
      !flagged;
  exit !status
