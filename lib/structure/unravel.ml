module ESet = Element.Set
module EMap = Element.Map

type variant = UGF | UGC2

type t = {
  result : Instance.t;
  up : Element.t EMap.t;
  root_copies : (ESet.t * Element.t EMap.t) list;
}

let up_map t = t.up
let instance t = t.result

let root_copy t g =
  List.find_opt (fun (g', _) -> ESet.equal g g') t.root_copies
  |> Option.map snd

(* Copy of the induced subinstance D|G through [copies : orig -> copy]. *)
let bag_facts d g copies =
  List.filter_map
    (fun (f : Instance.fact) ->
      if List.for_all (fun a -> ESet.mem a g) f.args then
        Some { f with args = List.map (fun a -> EMap.find a copies) f.args }
      else None)
    (ESet.fold (fun e acc -> Instance.incident e d @ acc) g [])
  |> List.sort_uniq Instance.compare_fact

(* The uGF-unravelling (conditions (a),(b),(c)) or the uGC2-unravelling
   (condition (c) replaced by (c'): the overlap with the predecessor must
   differ from the overlap with the successor). Bounded to sequences of
   at most [depth] expansion steps. *)
let unravel ?(variant = UGF) ~depth d =
  let gs = Array.of_list (Guarded.maximal_guarded_sets d) in
  let n = Array.length gs in
  let node_counter = ref 0 in
  let fresh_copy orig =
    incr node_counter;
    Element.Const
      (Printf.sprintf "%s@%d" (Element.to_string orig) !node_counter)
  in
  let result = ref Instance.empty in
  let up = ref EMap.empty in
  let root_copies = ref [] in
  let add_bag g copies =
    EMap.iter (fun orig copy -> up := EMap.add copy orig !up) copies;
    List.iter
      (fun f -> result := Instance.add_fact f !result)
      (bag_facts d g copies)
  in
  (* Expand node (tail index i, bag [copies], predecessor index [prev]). *)
  let rec expand steps i copies prev =
    if steps < depth then
      for j = 0 to n - 1 do
        let gi = gs.(i) and gj = gs.(j) in
        let overlap = ESet.inter gi gj in
        let allowed =
          j <> i
          && (not (ESet.is_empty overlap))
          &&
          match (variant, prev) with
          | _, None -> true
          | UGF, Some p -> j <> p
          | UGC2, Some p -> not (ESet.equal (ESet.inter gi gs.(p)) overlap)
        in
        if allowed then begin
          let copies' =
            ESet.fold
              (fun dlt m ->
                if ESet.mem dlt overlap then EMap.add dlt (EMap.find dlt copies) m
                else EMap.add dlt (fresh_copy dlt) m)
              gj EMap.empty
          in
          add_bag gj copies';
          expand (steps + 1) j copies' (Some i)
        end
      done
  in
  for i = 0 to n - 1 do
    let copies =
      ESet.fold (fun dlt m -> EMap.add dlt (fresh_copy dlt) m) gs.(i) EMap.empty
    in
    add_bag gs.(i) copies;
    root_copies := (gs.(i), copies) :: !root_copies;
    expand 0 i copies None
  done;
  { result = !result; up = !up; root_copies = List.rev !root_copies }
