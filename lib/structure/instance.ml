module SMap = Logic.Names.SMap

type fact = { rel : string; args : Element.t list }

(* Per-domain relation-name pool: facts built through [fact]/[add_fact]
   share one string per relation name, so the hot comparison path can
   settle most [rel] comparisons by physical equality instead of a byte
   compare. Domain-local so worker domains share nothing. *)
let pool_key :
    (string, string) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 32)

let intern_rel s =
  let pool = Domain.DLS.get pool_key in
  match Hashtbl.find_opt pool s with
  | Some s' -> s'
  | None ->
      Hashtbl.add pool s s;
      s

let fact rel args = { rel = intern_rel rel; args }

(* Same order as the polymorphic [Stdlib.compare] on the record:
   [rel] first (byte-lexicographic), then [args] element-wise. *)
let compare_fact a b =
  if a == b then 0
  else
    let c = if a.rel == b.rel then 0 else String.compare a.rel b.rel in
    if c <> 0 then c else List.compare Element.compare a.args b.args

module FactSet = Set.Make (struct
  type t = fact

  let compare = compare_fact
end)

type t = {
  uid : int;
  facts : FactSet.t;
  domain : Element.Set.t;
  incidence : FactSet.t Element.Map.t;
  signature : Logic.Signature.t;
}

(* Every structurally new value goes through [mk] and receives a fresh
   [uid]; operations that leave the value unchanged return the original
   record (same uid). Per-domain evaluation caches key on this id, so it
   must never be reused across distinct values. *)
let next_uid = Atomic.make 1

let mk ~facts ~domain ~incidence ~signature =
  { uid = Atomic.fetch_and_add next_uid 1; facts; domain; incidence; signature }

let empty =
  mk ~facts:FactSet.empty ~domain:Element.Set.empty
    ~incidence:Element.Map.empty ~signature:Logic.Signature.empty

let uid t = t.uid

let add_element e t =
  if Element.Set.mem e t.domain then t
  else
    mk ~facts:t.facts
      ~domain:(Element.Set.add e t.domain)
      ~incidence:t.incidence ~signature:t.signature

let add_fact f t =
  if FactSet.mem f t.facts then t
  else
    let rel = intern_rel f.rel in
    let f = if rel == f.rel then f else { f with rel } in
    let domain =
      List.fold_left (fun d e -> Element.Set.add e d) t.domain f.args
    in
    let incidence =
      List.fold_left
        (fun m e ->
          let cur =
            Option.value (Element.Map.find_opt e m) ~default:FactSet.empty
          in
          Element.Map.add e (FactSet.add f cur) m)
        t.incidence f.args
    in
    mk
      ~facts:(FactSet.add f t.facts)
      ~domain ~incidence
      ~signature:(Logic.Signature.add f.rel (List.length f.args) t.signature)

let remove_fact f t =
  if not (FactSet.mem f t.facts) then t
  else
    let facts = FactSet.remove f t.facts in
    (* An element leaves the domain when its last incident fact goes;
       elements without an incidence entry were added via [add_element]
       and stay. *)
    let domain, incidence =
      List.fold_left
        (fun (dom, inc) e ->
          match Element.Map.find_opt e inc with
          | None -> (dom, inc)
          | Some fs ->
              let fs = FactSet.remove f fs in
              if FactSet.is_empty fs then
                (Element.Set.remove e dom, Element.Map.remove e inc)
              else (dom, Element.Map.add e fs inc))
        (t.domain, t.incidence)
        (List.sort_uniq Element.compare f.args)
    in
    mk ~facts ~domain ~incidence ~signature:t.signature

let of_facts fs = List.fold_left (fun t f -> add_fact f t) empty fs

let of_list l = of_facts (List.map (fun (r, args) -> fact r args) l)

let facts t = FactSet.elements t.facts
let iter_facts f t = FactSet.iter f t.facts
let fact_set t = t.facts
let mem f t = FactSet.mem f t.facts
let domain t = t.domain
let domain_list t = Element.Set.elements t.domain
let cardinal t = FactSet.cardinal t.facts
let domain_size t = Element.Set.cardinal t.domain
let signature t = t.signature

let incident e t =
  match Element.Map.find_opt e t.incidence with
  | Some fs -> FactSet.elements fs
  | None -> []

let tuples rel t =
  FactSet.fold
    (fun f acc -> if f.rel = rel then f.args :: acc else acc)
    t.facts []

let union a b =
  let base =
    if Element.Set.subset b.domain a.domain then a
    else
      mk ~facts:a.facts
        ~domain:(Element.Set.union a.domain b.domain)
        ~incidence:a.incidence ~signature:a.signature
  in
  FactSet.fold (fun f t -> add_fact f t) b.facts base

let subset a b = FactSet.subset a.facts b.facts

let map_elements h t =
  let base =
    mk ~facts:FactSet.empty
      ~domain:(Element.Set.map h t.domain)
      ~incidence:Element.Map.empty ~signature:Logic.Signature.empty
  in
  FactSet.fold
    (fun f acc -> add_fact { f with args = List.map h f.args } acc)
    t.facts base

let max_null t =
  Element.Set.fold
    (fun e m -> match e with Element.Null n -> max n m | Element.Const _ -> m)
    t.domain (-1)

let fresh_nulls n t =
  let base = max_null t + 1 in
  List.init n (fun i -> Element.Null (base + i))

let constants t = Element.Set.filter Element.is_const t.domain

(* Rename nulls of [b] so that they are disjoint from those of [a]. *)
let shift_nulls_away ~from:a b =
  let offset = max_null a + 1 in
  if offset = 0 then b
  else
    map_elements
      (function
        | Element.Null n -> Element.Null (n + offset)
        | Element.Const _ as e -> e)
      b

let disjoint_union a b =
  (* Disjoint union in the model-theoretic sense: both domains are made
     disjoint by tagging constants and shifting nulls. *)
  let tag prefix = function
    | Element.Const c -> Element.Const (prefix ^ c)
    | Element.Null _ as e -> e
  in
  let a' = map_elements (tag "l:") a in
  let b' = shift_nulls_away ~from:a' (map_elements (tag "r:") b) in
  union a' b'

let equal a b = FactSet.equal a.facts b.facts && Element.Set.equal a.domain b.domain

let pp_fact ppf f =
  Fmt.pf ppf "%s(%a)" f.rel Fmt.(list ~sep:comma Element.pp) f.args

let pp ppf t =
  Fmt.pf ppf "@[<hv>{%a}@]" Fmt.(list ~sep:semi pp_fact) (facts t)
