module ESet = Element.Set
module EMap = Element.Map

type t = ESet.t EMap.t

let of_instance inst =
  let add_edge a b g =
    let cur = Option.value (EMap.find_opt a g) ~default:ESet.empty in
    EMap.add a (ESet.add b cur) g
  in
  let add_fact g (f : Instance.fact) =
    List.fold_left
      (fun g a ->
        List.fold_left
          (fun g b -> if Element.equal a b then g else add_edge a b g)
          g f.args)
      g f.args
  in
  let base =
    ESet.fold
      (fun e g -> EMap.add e ESet.empty g)
      (Instance.domain inst) EMap.empty
  in
  List.fold_left add_fact base (Instance.facts inst)

let neighbours g e = Option.value (EMap.find_opt e g) ~default:ESet.empty

let bfs_distances g source =
  let dist = Hashtbl.create 16 in
  let q = Queue.create () in
  List.iter
    (fun s ->
      if not (Hashtbl.mem dist s) then (
        Hashtbl.replace dist s 0;
        Queue.add s q))
    source;
  while not (Queue.is_empty q) do
    let u = Queue.pop q in
    let d = Hashtbl.find dist u in
    ESet.iter
      (fun v ->
        if not (Hashtbl.mem dist v) then (
          Hashtbl.replace dist v (d + 1);
          Queue.add v q))
      (neighbours g u)
  done;
  dist

let distance g a b =
  let dist = bfs_distances g [ a ] in
  Hashtbl.find_opt dist b

let connected_components g =
  let seen = Hashtbl.create 16 in
  EMap.fold
    (fun e _ comps ->
      if Hashtbl.mem seen e then comps
      else begin
        let dist = bfs_distances g [ e ] in
        let comp =
          Hashtbl.fold (fun v _ acc -> ESet.add v acc) dist ESet.empty
        in
        ESet.iter (fun v -> Hashtbl.replace seen v ()) comp;
        comp :: comps
      end)
    g []

let is_connected g =
  match connected_components g with [] | [ _ ] -> true | _ -> false
