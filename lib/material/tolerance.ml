module ESet = Structure.Element.Set
module EMap = Structure.Element.Map

(* Empirical unravelling tolerance (Definition 3): O is unravelling
   tolerant if O,D |= q(ā) coincides with O,Du |= q(b̄), where b̄ is the
   copy of ā in the root bag of the unravelling at the maximal guarded
   set of ā. The paper's Du is infinite; we use a depth-bounded prefix,
   so a reported violation is exact in the direction
   "certain on D but refuted on (a prefix of) Du". *)

type violation = {
  on_d : bool;
  on_du : bool;
  depth : int;
}

type verdict =
  | Tolerant_on  (** both sides agree at the tested depth *)
  | Violation of violation
  | Not_guarded of string
      (** the tuple is not inside a guarded set (or its root bag is
          missing), so Definition 3 does not apply *)

(* The Definition 3 check for every (q, ā) over one (O, D): the
   unravelling does not depend on the tuple, so it and the engines of D
   and of Du are built once and shared by every check. *)
let checker ?budget ?(variant = Structure.Unravel.UGF) ?(depth = 3) ?max_extra
    o d =
  let maximal = Structure.Guarded.maximal_guarded_sets d in
  let u = Structure.Unravel.unravel ~variant ~depth d in
  let on_d = Reasoner.Engine.create o d
  and on_du = Reasoner.Engine.create o (Structure.Unravel.instance u) in
  fun (q : Query.Cq.t) tuple ->
    Obs.Trace.with_span
      ~attrs:[ ("depth", Obs.Trace.Int depth) ]
      "material.tolerance_check"
    @@ fun () ->
    let g = ESet.of_list tuple in
    (* Definition 3 takes ā maximally guarded; we accept any tuple inside
       a maximal guarded set and evaluate at its copy in that root bag. *)
    match List.find_opt (fun h -> ESet.subset g h) maximal with
    | None -> Not_guarded "tuple not inside a guarded set"
    | Some host -> (
        match Structure.Unravel.root_copy u host with
        | None -> Not_guarded "no root bag for the guarded set"
        | Some copies ->
            let tuple' = List.map (fun e -> EMap.find e copies) tuple in
            let on_d = Reasoner.Engine.certain_cq ?budget ?max_extra on_d q tuple in
            let on_du =
              Reasoner.Engine.certain_cq ?budget ?max_extra on_du q tuple'
            in
            if Bool.equal on_d on_du then Tolerant_on
            else Violation { on_d; on_du; depth })

let check ?budget ?variant ?depth ?max_extra o d q tuple =
  checker ?budget ?variant ?depth ?max_extra o d q tuple

(* Convenience: test tolerance of every element of [d] against a unary
   rAQ. Non-guarded elements are skipped (they carry no verdict). *)
let check_unary ?budget ?variant ?depth ?max_extra o d q =
  let check = checker ?budget ?variant ?depth ?max_extra o d in
  List.filter_map
    (fun e ->
      match check q [ e ] with
      | Tolerant_on | Not_guarded _ -> None
      | Violation v -> Some (e, v))
    (Structure.Instance.domain_list d)
