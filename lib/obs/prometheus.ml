(* Prometheus text exposition (format 0.0.4) over Metrics registries.

   The registry speaks dotted snake_case ("serve.journal.appends");
   Prometheus names are [a-zA-Z_:][a-zA-Z0-9_:]*, so every other
   character is mapped to '_' and counters get the conventional
   "_total" suffix ("serve_journal_appends_total"). The mapping is
   documented in DESIGN.md — renaming either side is a schema change
   for scrapers. *)

let mangle name =
  let b = Buffer.create (String.length name + 8) in
  String.iteri
    (fun i c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '_' | ':' -> Buffer.add_char b c
      | '0' .. '9' ->
          if i = 0 then Buffer.add_char b '_';
          Buffer.add_char b c
      | _ -> Buffer.add_char b '_')
    name;
  Buffer.contents b

let counter_name name =
  let m = mangle name in
  if
    String.length m >= 6
    && String.sub m (String.length m - 6) 6 = "_total"
  then m
  else m ^ "_total"

(* HELP text: escape backslash and newline. *)
let escape_help s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* Label values: escape backslash, double quote and newline. *)
let escape_label s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string b "\\\\"
      | '"' -> Buffer.add_string b "\\\""
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let render_labels = function
  | [] -> ""
  | labels ->
      "{"
      ^ String.concat ","
          (List.map
             (fun (k, v) ->
               Printf.sprintf "%s=\"%s\"" (mangle k) (escape_label v))
             labels)
      ^ "}"

(* %g prints the 1-2.5-5 bucket bounds exactly ("2.5e-06", "0.1"). *)
let bound_str v = Printf.sprintf "%g" v

let float_str v =
  if Float.is_integer v && Float.abs v < 1e15 then
    Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

type kind = KCounter | KGauge | KHistogram

let kind_of t name =
  match Metrics.counter_value t name with
  | Some _ -> Some KCounter
  | None -> (
      match Metrics.gauge_value t name with
      | Some _ -> Some KGauge
      | None -> (
          match Metrics.histogram_stats t name with
          | Some _ -> Some KHistogram
          | None -> None))

let type_str = function
  | KCounter -> "counter"
  | KGauge -> "gauge"
  | KHistogram -> "histogram"

(* One exposition document over several registries distinguished by
   label sets (the daemon scrapes its loop registry unlabelled and one
   GC-gauge registry per worker as domain="i"). All samples of
   a name are grouped under a single HELP/TYPE block, as the format
   requires. *)
let render ?(help = fun _ -> None) sources =
  let buf = Buffer.create 4096 in
  (* Stable name order: union of all source names, sorted. *)
  let all_names =
    List.sort_uniq compare
      (List.concat_map (fun (_, t) -> Metrics.names t) sources)
  in
  List.iter
    (fun name ->
      (* The first source that has the name fixes its kind; sources
         disagreeing on kind for the same name would produce an invalid
         document, so mismatching samples are skipped. *)
      let kind =
        List.find_map (fun (_, t) -> kind_of t name) sources
      in
      match kind with
      | None -> ()
      | Some kind ->
          let pname =
            match kind with
            | KCounter -> counter_name name
            | KGauge | KHistogram -> mangle name
          in
          let help_text =
            match help name with Some h -> h | None -> "omq metric " ^ name
          in
          Buffer.add_string buf
            (Printf.sprintf "# HELP %s %s\n" pname (escape_help help_text));
          Buffer.add_string buf
            (Printf.sprintf "# TYPE %s %s\n" pname (type_str kind));
          List.iter
            (fun (labels, t) ->
              match (kind, kind_of t name) with
              | KCounter, Some KCounter ->
                  let v = Option.get (Metrics.counter_value t name) in
                  Buffer.add_string buf
                    (Printf.sprintf "%s%s %d\n" pname (render_labels labels) v)
              | KGauge, Some KGauge ->
                  let v = Option.get (Metrics.gauge_value t name) in
                  Buffer.add_string buf
                    (Printf.sprintf "%s%s %s\n" pname (render_labels labels)
                       (float_str v))
              | KHistogram, Some KHistogram ->
                  let count, sum, _, _ =
                    Option.get (Metrics.histogram_stats t name)
                  in
                  let buckets =
                    Option.get (Metrics.histogram_buckets t name)
                  in
                  let cum = ref 0 in
                  Array.iteri
                    (fun i n ->
                      if i < Array.length Metrics.bucket_bounds then begin
                        cum := !cum + n;
                        let labels =
                          labels
                          @ [ ("le", bound_str Metrics.bucket_bounds.(i)) ]
                        in
                        Buffer.add_string buf
                          (Printf.sprintf "%s_bucket%s %d\n" pname
                             (render_labels labels) !cum)
                      end)
                    buckets;
                  let inf_labels = labels @ [ ("le", "+Inf") ] in
                  Buffer.add_string buf
                    (Printf.sprintf "%s_bucket%s %d\n" pname
                       (render_labels inf_labels) count);
                  Buffer.add_string buf
                    (Printf.sprintf "%s_sum%s %s\n" pname
                       (render_labels labels) (float_str sum));
                  Buffer.add_string buf
                    (Printf.sprintf "%s_count%s %d\n" pname
                       (render_labels labels) count)
              | _ -> ())
            sources)
    all_names;
  Buffer.contents buf
