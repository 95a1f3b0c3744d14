(* Shared builders for test suites. *)

module F = Logic.Formula
module T = Logic.Term

let v s = T.Var s
let c s = T.Const s
let e s = Structure.Element.Const s

let inst l =
  Structure.Instance.of_list
    (List.map (fun (r, args) -> (r, List.map e args)) l)

let cq ?name ~answer atoms = Query.Cq.make ?name ~answer atoms
let ucq ?name qs = Query.Ucq.make ?name qs

(* ∀x (x = x → body) *)
let forall_eq x body = F.Forall ([ x ], F.Implies (F.Eq (v x, v x), body))

let atom r ts = F.Atom (r, ts)

(* ---------------------------------------------------------------- *)
(* Paper ontologies used across suites                               *)
(* ---------------------------------------------------------------- *)

(* O1 = { Hand ⊑ ∃=5 hasFinger } (Section 1). *)
let o_hand_five =
  Dl.Translate.tbox
    [ Dl.Tbox.Sub
        ( Dl.Concept.Atomic "Hand",
          Dl.Concept.exactly 5 (Dl.Concept.Name "hasFinger") Dl.Concept.Top )
    ]

(* O2 = { Hand ⊑ ∃ hasFinger.Thumb }. *)
let o_hand_thumb =
  Dl.Translate.tbox
    [ Dl.Tbox.Sub
        ( Dl.Concept.Atomic "Hand",
          Dl.Concept.Exists (Dl.Concept.Name "hasFinger", Dl.Concept.Atomic "Thumb")
        )
    ]

let o_hand_union = Logic.Ontology.union o_hand_five o_hand_thumb

(* OMat/PTime = { ∀x A(x) ∨ ∀x B(x) } (Example 1): not a uGF sentence. *)
let o_mat_ptime =
  Logic.Ontology.make
    [ F.Or
        ( F.Forall ([ "x" ], atom "A" [ v "x" ]),
          F.Forall ([ "x" ], atom "B" [ v "x" ]) )
    ]

(* OUCQ/CQ = { ∀x (A(x) ∨ B(x)) ∨ ∃x E(x) } (Example 1). *)
let o_ucq_cq =
  Logic.Ontology.make
    [ F.Or
        ( F.Forall ([ "x" ], F.Or (atom "A" [ v "x" ], atom "B" [ v "x" ])),
          F.Exists ([ "x" ], atom "E" [ v "x" ]) )
    ]

(* A simple disjunctive ontology: ∀x (D(x) → A(x) ∨ B(x)). *)
let o_disj =
  Logic.Ontology.make
    [ forall_eq "x"
        (F.Implies (atom "D" [ v "x" ], F.Or (atom "A" [ v "x" ], atom "B" [ v "x" ])))
    ]

(* Horn: ∀x (A(x) → ∃y (R(x,y) ∧ B(y))), ∀xy (R(x,y) → (B(y) → C(x))). *)
let o_horn =
  Logic.Ontology.make
    [ forall_eq "x"
        (F.Implies
           ( atom "A" [ v "x" ],
             F.Exists ([ "y" ], F.And (atom "R" [ v "x"; v "y" ], atom "B" [ v "y" ]))
           ));
      F.Forall
        ( [ "x"; "y" ],
          F.Implies
            ( atom "R" [ v "x"; v "y" ],
              F.Implies (atom "B" [ v "y" ], atom "C" [ v "x" ]) ) );
    ]

(* Reasoner.Stats.json's keys in emission order: the documented jq
   contract of stats.mli. *)
let stats_keys =
  [ "groundings"; "solves"; "decisions"; "propagations"; "conflicts";
    "memo_hits"; "memo_misses"; "budget_timeouts"; "budget_fuel_trips";
    "ground_seconds"; "solve_seconds" ]

(* ---------------------------------------------------------------- *)
(* Raw-socket plumbing for daemon framing and pipelining tests.       *)
(* ---------------------------------------------------------------- *)

let raw_connect addr =
  let path = match addr with Omqd.Daemon.Unix_path p -> p | _ -> assert false in
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let rec go n =
    match Unix.connect fd (Unix.ADDR_UNIX path) with
    | () -> ()
    | exception Unix.Unix_error ((Unix.ECONNREFUSED | Unix.ENOENT), _, _)
      when n < 200 ->
        Unix.sleepf 0.01;
        go (n + 1)
  in
  go 0;
  fd

let write_all fd s =
  let len = String.length s in
  let rec go pos =
    if pos < len then
      match Unix.write_substring fd s pos (len - pos) with
      | n -> go (pos + n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go pos
  in
  go 0

(* Blocking read of the next newline-terminated frame; [buf] carries
   bytes already read past earlier frames. *)
let read_line fd buf =
  let chunk = Bytes.create 4096 in
  let rec go () =
    let s = Buffer.contents buf in
    match String.index_opt s '\n' with
    | Some i ->
        Buffer.clear buf;
        Buffer.add_substring buf s (i + 1) (String.length s - i - 1);
        String.sub s 0 i
    | None -> (
        match Unix.read fd chunk 0 (Bytes.length chunk) with
        | 0 -> Alcotest.fail "unexpected EOF from daemon"
        | n ->
            Buffer.add_subbytes buf chunk 0 n;
            go ()
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ())
  in
  go ()
