(* Tests for the commutativity analysis and the serving-side laws it
   licenses. Three angles: the registry matrices must only claim what
   the model checker confirmed (every [Commute] cell and believed law
   carries checks); hand-mutated programs with provably order-dependent
   updates must never come out [Commute]; and the laws the oracle
   answers are re-verified here as qcheck properties over reachable
   states across all four backends — an independent replay of the
   analysis' own model checking, from fresh seeds. *)

open Dynfo_logic
open Dynfo
open Dynfo_programs
module C = Dynfo_analysis.Commute
module Mc = Dynfo_analysis.Mc
module Advisor = Dynfo_analysis.Advisor
module Calibration = Dynfo_analysis.Calibration

let () =
  Advisor.install ();
  C.install ()

let check = Alcotest.check
let tb = Alcotest.bool
let ti = Alcotest.int
let find name = (Registry.find name).Registry.program
let op kind rel arity = { C.op_kind = kind; op_rel = rel; op_arity = arity }
let backends = [ `Tuple; `Bulk; `Delta; `Auto ]

(* --- matrices claim only what was confirmed ------------------------------ *)

let test_matrix_confirmed () =
  List.iter
    (fun name ->
      let m = C.matrix_of (find name) in
      List.iter
        (fun (c : C.cell) ->
          match c.C.c_verdict with
          | C.Commute ->
              check tb
                (Printf.sprintf "%s: %s/%s confirmed" name
                   (C.op_name c.C.c_left) (C.op_name c.C.c_right))
                true (c.C.c_checks > 0);
              check tb (name ^ ": commute cell carries a domain") true
                (c.C.c_domain <> None)
          | C.Conflict | C.Unknown -> ())
        m.C.m_cells;
      List.iter
        (fun (o : C.op_report) ->
          if o.C.or_idempotent.Mc.law_holds then
            check tb
              (name ^ ": " ^ C.op_name o.C.or_op ^ " idempotence checked")
              true
              (o.C.or_idempotent.Mc.law_checks > 0);
          if o.C.or_nop.Mc.law_holds then
            check tb
              (name ^ ": " ^ C.op_name o.C.or_op ^ " no-op law checked")
              true
              (o.C.or_nop.Mc.law_checks > 0))
        m.C.m_ops)
    [ "parity"; "reach_u"; "matching" ]

let test_known_verdicts () =
  let m = C.matrix_of (find "parity") in
  let ins_m = op `Ins "M" 1 and del_m = op `Del "M" 1 in
  check tb "parity ins/ins commutes" true (C.verdict m ins_m ins_m = C.Commute);
  check tb "parity ins/del commutes" true (C.verdict m ins_m del_m = C.Commute);
  let mr = C.matrix_of (find "reach_u") in
  let ins_e = op `Ins "E" 2 and del_e = op `Del "E" 2 in
  check tb "reach_u ins/ins conflicts" true
    (C.verdict mr ins_e ins_e = C.Conflict);
  check tb "reach_u del/del commutes" true
    (C.verdict mr del_e del_e = C.Commute);
  (match C.find_cell mr del_e del_e with
  | Some c ->
      check tb "reach_u del/del holds on the reachable domain only" true
        (c.C.c_domain = Some Mc.Reachable)
  | None -> Alcotest.fail "reach_u del/del cell missing");
  (* set s / set t write distinct constants nothing else reads *)
  let set_s = op `Set "s" 1 and set_t = op `Set "t" 1 in
  check tb "reach_u set s/set t commutes" true
    (C.verdict mr set_s set_t = C.Commute);
  check tb "reach_u set s/set s conflicts (last writer wins)" true
    (C.verdict mr set_s set_s = C.Conflict)

(* --- mutations: provable conflicts are never called Commute -------------- *)

let m_vocab = Vocab.make ~rels:[ ("M", 1) ] ~consts:[]
let b_vocab = Vocab.make ~rels:[ ("b", 0) ] ~consts:[]

(* parity with the deletion flip replaced by an absorbing reset:
   [ins a; del b] leaves [b] cleared, [del b; ins a] leaves it set —
   the orders are distinguishable even on distinct arguments *)
let reset_parity =
  Program.make ~name:"parity-reset" ~input_vocab:m_vocab ~aux_vocab:b_vocab
    ~init:(fun n -> Structure.create ~size:n (Vocab.union m_vocab b_vocab))
    ~on_ins:
      [
        ( "M",
          Program.update ~params:[ "a" ]
            [
              Program.rule_s "M" [ "x" ] "M(x) | x = a";
              Program.rule_s "b" [] "(b() & M(a)) | (~b() & ~M(a))";
            ] );
      ]
    ~on_del:
      [
        ( "M",
          Program.update ~params:[ "a" ]
            [
              Program.rule_s "M" [ "x" ] "M(x) & x != a";
              Program.rule_s "b" [] "b() & ~b()";
            ] );
      ]
    ~query:(Parser.parse "b()") ()

(* a write/read overlap across ops: [ins] raises [A], [del] latches the
   pre-state of [A] into [B] — swapping the orders latches different
   values *)
let latch_vocab = Vocab.make ~rels:[ ("A", 0); ("B", 0) ] ~consts:[]

let latch =
  Program.make ~name:"latch" ~input_vocab:m_vocab ~aux_vocab:latch_vocab
    ~init:(fun n -> Structure.create ~size:n (Vocab.union m_vocab latch_vocab))
    ~on_ins:
      [ ("M", Program.update ~params:[ "a" ] [ Program.rule_s "A" [] "A() | ~A()" ]) ]
    ~on_del:
      [ ("M", Program.update ~params:[ "a" ] [ Program.rule_s "B" [] "A()" ]) ]
    ~query:(Parser.parse "B()") ()

let test_mutations_conflict () =
  let ins_m = op `Ins "M" 1 and del_m = op `Del "M" 1 in
  let m = C.analyze reset_parity in
  check tb "reset parity ins/del is not Commute" true
    (C.verdict m ins_m del_m <> C.Commute);
  let m2 = C.analyze latch in
  check tb "latch ins/del is not Commute" true
    (C.verdict m2 ins_m del_m <> C.Commute);
  (* the oracles built from these matrices refuse the swap *)
  let o = C.oracle_of reset_parity in
  check tb "reset parity oracle refuses swap" true
    (not (o.Runner.co_swap (Request.ins "M" [ 0 ]) (Request.del "M" [ 1 ])));
  let o2 = C.oracle_of latch in
  check tb "latch oracle refuses swap" true
    (not (o2.Runner.co_swap (Request.ins "M" [ 0 ]) (Request.del "M" [ 1 ])))

(* --- qcheck: the oracle's laws replayed on fresh reachable states -------- *)

let qprogs = [ "parity"; "reach_u"; "matching" ]

let qsetup (seed, prefix, name) =
  let e = Registry.find name in
  let size = 6 in
  let rng = Random.State.make [| 0xC0; seed |] in
  let pre = if prefix = 0 then [] else e.Registry.workload rng ~size ~length:prefix in
  let s0 = Runner.run (Runner.init e.Registry.program ~size) pre in
  (e, size, rng, s0)

let qargs = QCheck.(triple (int_range 1 100_000) (int_range 0 24) (oneofl qprogs))

let swap_qcheck =
  QCheck.Test.make
    ~name:"oracle-approved swaps preserve the state on every backend"
    ~count:60 qargs
    (fun (seed, prefix, name) ->
      let e, size, rng, s0 = qsetup (seed, prefix, name) in
      match e.Registry.workload rng ~size ~length:2 with
      | [ r1; r2 ] ->
          let oracle = Runner.commute_oracle e.Registry.program in
          (not (oracle.Runner.co_swap r1 r2))
          || List.for_all
               (fun backend ->
                 let a = Runner.step ~backend (Runner.step ~backend s0 r1) r2 in
                 let b = Runner.step ~backend (Runner.step ~backend s0 r2) r1 in
                 Structure.equal (Runner.structure a) (Runner.structure b))
               backends
      | _ -> true)

let dedupe_qcheck =
  QCheck.Test.make
    ~name:"verified idempotence: r;r == r on every backend" ~count:60 qargs
    (fun (seed, prefix, name) ->
      let e, size, rng, s0 = qsetup (seed, prefix, name) in
      match e.Registry.workload rng ~size ~length:1 with
      | [ r ] ->
          let oracle = Runner.commute_oracle e.Registry.program in
          (not (oracle.Runner.co_dedupe r))
          || List.for_all
               (fun backend ->
                 let s1 = Runner.step ~backend s0 r in
                 let s2 = Runner.step ~backend s1 r in
                 Structure.equal (Runner.structure s1) (Runner.structure s2))
               backends
      | _ -> true)

let elide_qcheck =
  QCheck.Test.make
    ~name:"verified no-op law: input-preserving requests change nothing"
    ~count:60 qargs
    (fun (seed, prefix, name) ->
      let e, size, rng, s0 = qsetup (seed, prefix, name) in
      match e.Registry.workload rng ~size ~length:1 with
      | [ r ] ->
          let oracle = Runner.commute_oracle e.Registry.program in
          (not (oracle.Runner.co_elidable r))
          || List.for_all
               (fun backend ->
                 let s1 = Runner.step ~backend s0 r in
                 (not (Structure.equal (Runner.input s1) (Runner.input s0)))
                 || Structure.equal (Runner.structure s1)
                      (Runner.structure s0))
               backends
      | _ -> true)

(* --- invisibility: updates provably unseen by a query -------------------- *)

let two_vocab = Vocab.make ~rels:[ ("R", 1); ("S", 1) ] ~consts:[]
let two_aux = Vocab.make ~rels:[ ("AR", 0); ("AS", 0) ] ~consts:[]

let two_sub =
  Program.make ~name:"two-sub" ~input_vocab:two_vocab ~aux_vocab:two_aux
    ~init:(fun n -> Structure.create ~size:n (Vocab.union two_vocab two_aux))
    ~on_ins:
      [
        ("R", Program.update ~params:[ "a" ] [ Program.rule_s "AR" [] "AR() | R(a)" ]);
        ("S", Program.update ~params:[ "a" ] [ Program.rule_s "AS" [] "AS() | S(a)" ]);
      ]
    ~queries:[ ("qr", [], Parser.parse "AR()"); ("qs", [], Parser.parse "AS()") ]
    ~query:(Parser.parse "AR() & AS()") ()

let test_invisibility () =
  let oracle = C.oracle_of two_sub in
  let ins_r = Request.ins "R" [ 0 ] and ins_s = Request.ins "S" [ 0 ] in
  check tb "ins R invisible to qs" true
    (oracle.Runner.co_invisible ins_r (Some "qs"));
  check tb "ins R visible to qr" true
    (not (oracle.Runner.co_invisible ins_r (Some "qr")));
  check tb "ins R visible to the program query" true
    (not (oracle.Runner.co_invisible ins_r None));
  check tb "ins S invisible to qr" true
    (oracle.Runner.co_invisible ins_s (Some "qr"));
  (* the independent subsystems are caught by the cheap syntactic layer *)
  let m = C.matrix_of two_sub in
  let opr = op `Ins "R" 1 and ops = op `Ins "S" 1 in
  check tb "R/S commute" true (C.verdict m opr ops = C.Commute);
  match C.find_cell m opr ops with
  | Some c -> check tb "syntactic source" true (c.C.c_source = C.Syntactic)
  | None -> Alcotest.fail "R/S cell missing"

(* --- the batch planner --------------------------------------------------- *)

let test_plan_groups () =
  let p = find "parity" in
  let reqs =
    [ Request.ins "M" [ 0 ]; Request.del "M" [ 1 ]; Request.ins "M" [ 2 ] ]
  in
  let groups = Runner.plan_groups p reqs in
  check ti "parity batch plans into 2 groups" 2 (List.length groups);
  let s0 = Runner.init p ~size:4 in
  let a = Runner.run s0 reqs in
  let b = Runner.run s0 (List.concat groups) in
  check tb "plan is equivalent to the submitted order" true
    (Structure.equal (Runner.structure a) (Runner.structure b));
  (* reach_u insertions conflict: the planner must not merge across *)
  let pr = find "reach_u" in
  let r = [ Request.ins "E" [ 0; 1 ]; Request.del "E" [ 2; 3 ]; Request.ins "E" [ 1; 2 ] ] in
  check ti "reach_u batch keeps 3 groups" 3
    (List.length (Runner.plan_groups pr r))

let batch_qcheck =
  QCheck.Test.make
    ~name:"step_batch under the commute oracle == run, every backend"
    ~count:40
    QCheck.(triple (int_range 1 100_000) (int_range 1 40) (oneofl qprogs))
    (fun (seed, length, name) ->
      let e = Registry.find name in
      let size = 6 in
      let rng = Random.State.make [| 0xBA; seed |] in
      let reqs = e.Registry.workload rng ~size ~length in
      let s0 = Runner.init e.Registry.program ~size in
      List.for_all
        (fun backend ->
          let a = Runner.run ~backend s0 reqs in
          let b = Runner.step_batch ~backend s0 reqs in
          Structure.equal (Runner.structure a) (Runner.structure b))
        backends)

(* --- the advisor's wall-clock cutoff ------------------------------------- *)

let test_advisor_wall_clock_flip () =
  let p = find "reach_u" in
  check tb "static advice is delta" true
    ((Advisor.of_program p).Advisor.backend = `Delta);
  (* the flip is driven by the µs model: nearly-free recomputes push
     the advice off delta at a concrete size, nearly-free retests keep
     it — asserted with explicit tables so the checked-in constants can
     be re-measured without touching this test *)
  let stingy =
    { Calibration.setup_us = 1000.; retest_us = 10.; full_tuple_us = 1e-4 }
  in
  let generous =
    { Calibration.setup_us = 1e-4; retest_us = 1e-4; full_tuple_us = 1000. }
  in
  let a = Advisor.of_program ~size:8 ~calibration:stingy p in
  check tb "stingy calibration flips off delta" true
    (a.Advisor.backend <> `Delta);
  check tb "flip lands on the fallback" true
    (a.Advisor.backend = (a.Advisor.fallback :> [ `Tuple | `Bulk | `Delta ]));
  let b = Advisor.of_program ~size:8 ~calibration:generous p in
  check tb "generous calibration keeps delta" true (b.Advisor.backend = `Delta);
  (* with the checked-in table the advice is exactly the break-even
     comparison over the static estimates *)
  List.iter
    (fun n ->
      let rules, frontier, space = Advisor.delta_estimates p ~size:n in
      let be = Calibration.break_even ~rules ~space () in
      let adv = Advisor.of_program ~size:n p in
      check tb
        (Printf.sprintf "advice at n=%d matches break-even" n)
        (float_of_int frontier <= be)
        (adv.Advisor.backend = `Delta))
    [ 2; 4; 8; 16; 32 ]

(* the flip happens *at* the break-even, not merely somewhere: solve
   for the retest constant that puts the break-even exactly on the
   estimated frontier, keep the measured setup/full constants, and
   nudge retest one percent to either side — the advice must flip
   across that boundary *)
let test_advisor_break_even_boundary () =
  let p = find "reach_u" in
  let n = 8 in
  let rules, frontier, space = Advisor.delta_estimates p ~size:n in
  let { Calibration.setup_us; full_tuple_us; _ } = Calibration.default in
  let exact =
    ((full_tuple_us *. float_of_int space) -. (setup_us *. float_of_int rules))
    /. float_of_int (max 1 frontier)
  in
  check tb "boundary is realisable with the measured constants" true
    (exact > 0. && frontier > 0);
  let at scale =
    { Calibration.setup_us; retest_us = exact *. scale; full_tuple_us }
  in
  let keep = Advisor.of_program ~size:n ~calibration:(at 0.99) p in
  let drop = Advisor.of_program ~size:n ~calibration:(at 1.01) p in
  check tb "frontier just under break-even keeps delta" true
    (keep.Advisor.backend = `Delta);
  check tb "frontier just past break-even flips to the fallback" true
    (drop.Advisor.backend
    = (drop.Advisor.fallback :> [ `Tuple | `Bulk | `Delta ]))

let () =
  Alcotest.run "commute"
    [
      ( "matrix",
        [
          Alcotest.test_case "commute cells are confirmed" `Quick
            test_matrix_confirmed;
          Alcotest.test_case "known verdicts" `Quick test_known_verdicts;
          Alcotest.test_case "mutated conflicts never Commute" `Quick
            test_mutations_conflict;
          Alcotest.test_case "invisibility" `Quick test_invisibility;
        ] );
      ( "laws",
        [
          QCheck_alcotest.to_alcotest swap_qcheck;
          QCheck_alcotest.to_alcotest dedupe_qcheck;
          QCheck_alcotest.to_alcotest elide_qcheck;
        ] );
      ( "planner",
        [
          Alcotest.test_case "plan_groups" `Quick test_plan_groups;
          QCheck_alcotest.to_alcotest batch_qcheck;
        ] );
      ( "advisor",
        [
          Alcotest.test_case "wall-clock flip" `Quick
            test_advisor_wall_clock_flip;
          Alcotest.test_case "flip at the measured break-even" `Quick
            test_advisor_break_even_boundary;
        ] );
    ]
