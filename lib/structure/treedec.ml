module ESet = Element.Set

(* --------------------------------------------------------------------- *)
(* Hypergraph acyclicity via the GYO reduction.                          *)
(* Bags of connected guarded tree decompositions (Section 2.2) are the    *)
(* argument sets of facts; an instance is guarded-tree-decomposable iff   *)
(* its hypergraph of fact argument sets is alpha-acyclic.                 *)
(* --------------------------------------------------------------------- *)

(* One GYO pass: remove vertices that occur in exactly one edge, then
   remove edges contained in other edges. Returns when a fixpoint is
   reached. *)
let gyo edges =
  let n = Array.length edges in
  let current = Array.copy edges in
  let alive = Array.make n true in
  let changed = ref true in
  while !changed do
    changed := false;
    (* Count vertex occurrences among live edges. *)
    let count = Hashtbl.create 16 in
    Array.iteri
      (fun i e ->
        if alive.(i) then
          ESet.iter
            (fun v ->
              Hashtbl.replace count v
                (1 + Option.value (Hashtbl.find_opt count v) ~default:0))
            e)
      current;
    (* Ear-vertex removal. *)
    Array.iteri
      (fun i e ->
        if alive.(i) then begin
          let e' = ESet.filter (fun v -> Hashtbl.find count v > 1) e in
          if not (ESet.equal e e') then begin
            current.(i) <- e';
            changed := true
          end
        end)
      current;
    (* Edge absorption. *)
    Array.iteri
      (fun i e ->
        let rec absorbed k =
          k < n
          && ((k <> i && alive.(k) && ESet.subset e current.(k))
             || absorbed (k + 1))
        in
        if alive.(i) && absorbed 0 then begin
          alive.(i) <- false;
          changed := true
        end)
      current
  done;
  (alive, current)

let is_alpha_acyclic edges =
  match edges with
  | [] -> true
  | _ ->
      let arr = Array.of_list edges in
      let alive, current = gyo arr in
      let live =
        Array.to_list
          (Array.mapi (fun i e -> if alive.(i) then Some e else None) current)
      in
      let live = List.filter_map Fun.id live in
      List.for_all ESet.is_empty live

(* The hyperedges of an instance: distinct fact argument sets. *)
let edges_of_instance inst =
  List.sort_uniq ESet.compare
    (List.map
       (fun (f : Instance.fact) -> ESet.of_list f.args)
       (Instance.facts inst))

let is_guarded_tree_decomposable inst = is_alpha_acyclic (edges_of_instance inst)

(* Connected guarded tree decomposability: additionally the Gaifman graph
   must be connected (so that adjacent bags can be made to overlap). *)
let is_cg_tree_decomposable inst =
  is_guarded_tree_decomposable inst
  && Gaifman.is_connected (Gaifman.of_instance inst)

(* Existence of a cg-tree decomposition whose root bag has domain exactly
   [root]: we require [root] to be a guarded set and the hypergraph
   extended with the edge [root] to remain acyclic. *)
let is_rooted_decomposable inst ~root =
  (not (ESet.is_empty root))
  && Guarded.is_guarded inst root
  && Gaifman.is_connected (Gaifman.of_instance inst)
  && is_alpha_acyclic (root :: edges_of_instance inst)
