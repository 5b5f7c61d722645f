(* Tests for the definable-change analysis and the batch-absorption
   machinery it licenses. Three angles: the registry matrices must only
   claim what the model checker confirmed (known verdicts included);
   hand-mutated programs whose update blocks genuinely differ from
   default maintenance must never come out [Absorb] — and forcing the
   verdict anyway must be observably wrong, proving the analyzer's
   refusal matters; and the whole-batch law (certified batch tick ≡
   singleton-sequence fold of the pre-state expansion, answers and
   final relations both) is replayed as a qcheck property over the
   whole registry across all four backends and the parallel engine at
   1 and 4 lanes, with set and FO-defined requests mixed in. *)

open Dynfo_logic
open Dynfo
open Dynfo_programs
module D = Dynfo_analysis.Defchange
module Mc = Dynfo_analysis.Mc
module Advisor = Dynfo_analysis.Advisor
module Commute = Dynfo_analysis.Commute
module Pool = Dynfo_engine.Pool

let () =
  Advisor.install ();
  Commute.install ();
  D.install ()

let check = Alcotest.check
let tb = Alcotest.bool
let find name = (Registry.find name).Registry.program
let backends = [ `Tuple; `Bulk; `Delta; `Auto ]

(* --- matrices claim only what was confirmed ------------------------------ *)

let test_matrix_confirmed () =
  List.iter
    (fun name ->
      let m = D.matrix_of (find name) in
      List.iter
        (fun (c : D.cell) ->
          match c.D.d_verdict with
          | D.Absorb ->
              check tb
                (Printf.sprintf "%s: %s verdict confirmed" name
                   (D.op_name c.D.d_op))
                true
                (c.D.d_checks > 0 && c.D.d_domain <> None)
          | D.Fold ->
              check tb
                (Printf.sprintf "%s: %s fold was model-checked" name
                   (D.op_name c.D.d_op))
                true (c.D.d_checks > 0)
          | D.Unknown -> ())
        m.D.m_cells)
    [ "parity"; "reach_u"; "matching" ]

let test_known_verdicts () =
  let m = D.matrix_of (find "parity") in
  (* the b-rule reads M(a): members observe each other, absorb is
     refuted and the group folds *)
  check tb "parity ins M folds" true (D.verdict m `Ins "M" = D.Fold);
  check tb "parity del M folds" true (D.verdict m `Del "M" = D.Fold);
  (match D.find_cell m `Ins "M" with
  | Some c ->
      check tb "parity ins M absorb law refuted" true
        (not c.D.d_absorb.Mc.law_holds);
      check tb "parity ins M definable law confirmed" true
        (c.D.d_definable.Mc.law_holds && c.D.d_definable.Mc.law_checks > 0)
  | None -> Alcotest.fail "parity ins M cell missing");
  let mr = D.matrix_of (find "reach_u") in
  check tb "reach_u ins E folds" true (D.verdict mr `Ins "E" = D.Fold);
  (* no on_set block: whole set-groups absorb as default maintenance *)
  check tb "reach_u set s absorbs" true (D.verdict mr `Set "s" = D.Absorb);
  check tb "reach_u set t absorbs" true (D.verdict mr `Set "t" = D.Absorb);
  (* absorb held on reachable states only: too weak to skip the block
     (pad_reach_a's Up groups diverge from the fold at n = 6), so these
     cells fall to the fold *)
  let mp = D.matrix_of (find "pad_reach_a") in
  check tb "pad_reach_a ins Up folds" true (D.verdict mp `Ins "Up" = D.Fold);
  check tb "pad_reach_a del Up folds" true (D.verdict mp `Del "Up" = D.Fold);
  check tb "regular del A1 folds" true
    (D.verdict (D.matrix_of (find "regular")) `Del "A1" = D.Fold);
  (* the installed oracle answers what the matrix verified *)
  check tb "oracle: reach_u set s -> `Absorb" true
    (D.oracle_of (find "reach_u") `Set "s" = `Absorb);
  check tb "oracle: parity ins M -> `Fold" true
    (D.oracle_of (find "parity") `Ins "M" = `Fold)

let test_mc_size_zero_is_unknown () =
  let m = D.analyze ~max_size:0 (find "parity") in
  List.iter
    (fun (c : D.cell) ->
      check tb
        (Printf.sprintf "mc-size 0: %s is Unknown" (D.op_name c.D.d_op))
        true
        (c.D.d_verdict = D.Unknown);
      check tb "Unknown maps to the safe `Fold" true
        (match D.verdict m c.D.d_op.Commute.op_kind c.D.d_op.Commute.op_rel with
        | D.Unknown -> true
        | _ -> false))
    m.D.m_cells

(* --- mutation: a batch-sensitive block is never granted Absorb ----------- *)

let m_vocab = Vocab.make ~rels:[ ("M", 1) ] ~consts:[]
let a_vocab = Vocab.make ~rels:[ ("A", 1) ] ~consts:[]

(* first-insert latch: [A] records elements whose insertion was the
   first (M(a) false in the pre-state). The M-rule is exactly default
   maintenance, so an absorbing batch would keep M right but drop every
   A record — [ins 0] on an empty state differs observably. *)
let first_insert =
  Program.make ~name:"first-insert" ~input_vocab:m_vocab ~aux_vocab:a_vocab
    ~init:(fun n -> Structure.create ~size:n (Vocab.union m_vocab a_vocab))
    ~on_ins:
      [
        ( "M",
          Program.update ~params:[ "a" ]
            [
              Program.rule_s "M" [ "x" ] "M(x) | x = a";
              Program.rule_s "A" [ "x" ] "A(x) | (x = a & ~M(a))";
            ] );
      ]
    ~query:(Parser.parse "ex x (A(x))") ()

let test_mutation_rejects_absorb () =
  let m = D.analyze first_insert in
  check tb "first-insert ins M is not Absorb" true
    (D.verdict m `Ins "M" <> D.Absorb);
  (match D.find_cell m `Ins "M" with
  | Some c ->
      check tb "absorb law refuted with a counterexample" true
        (not c.D.d_absorb.Mc.law_holds)
  | None -> Alcotest.fail "first-insert ins M cell missing");
  check tb "oracle never answers `Absorb for it" true
    (D.oracle_of first_insert `Ins "M" <> `Absorb);
  (* the refusal matters: forcing `Absorb anyway is observably wrong *)
  let s0 = Runner.init first_insert ~size:4 in
  let batch = [ Request.ins "M" [ 0 ]; Request.ins "M" [ 1 ] ] in
  let fold_s = Runner.run s0 batch in
  let forced =
    Runner.step_batch ~oracle:Runner.null_oracle
      ~defchange:(fun _ _ -> `Absorb)
      s0 batch
  in
  check tb "forced absorption diverges from the fold" false
    (Structure.equal (Runner.structure fold_s) (Runner.structure forced));
  (* ... and the honest batch path (installed oracle) agrees with it *)
  let honest = Runner.step_batch s0 batch in
  check tb "oracle-driven batch matches the fold" true
    (Structure.equal (Runner.structure fold_s) (Runner.structure honest))

(* --- qcheck: certified batches == singleton fold, whole registry --------- *)

let qprogs = List.map (fun (e : Registry.entry) -> e.Registry.name) Registry.all

(* Lift a singleton workload into batch request forms: contiguous runs
   of the same (kind, relation) collapse into ins*/del* tuple lists,
   and on a cadence an FO-defined range change rides along. The
   reference semantics is the pre-state expansion's fold, so arbitrary
   mixes stay comparable. *)
let lift_batch rng (p : Program.t) ~size reqs =
  let tup = function
    | Request.Ins (_, t) | Request.Del (_, t) -> Array.to_list t
    | _ -> assert false
  in
  let rec runs acc cur = function
    | [] -> List.rev (if cur = [] then acc else List.rev cur :: acc)
    | r :: rest -> (
        match (r, cur) with
        | (Request.Ins (n, _) | Request.Del (n, _)), prev :: _
          when Runner.op_key r = Runner.op_key prev
               && Random.State.bool rng ->
            ignore n;
            runs acc (r :: cur) rest
        | _ -> runs (if cur = [] then acc else List.rev cur :: acc) [ r ] rest)
  in
  let collapse group =
    match group with
    | (Request.Ins (n, _) :: _ | Request.Del (n, _) :: _)
      when List.length group > 1 -> (
        match List.hd group with
        | Request.Ins _ -> [ Request.ins_set n (List.map tup group) ]
        | _ -> [ Request.del_set n (List.map tup group) ])
    | g -> g
  in
  let base = List.concat_map collapse (runs [] [] reqs) in
  match Vocab.relations p.input_vocab with
  | (s : Vocab.sym) :: _ when s.arity >= 1 && Random.State.int rng 3 = 0 ->
      let vars = List.init s.arity (fun i -> Printf.sprintf "qv%d" i) in
      let lim = 1 + Random.State.int rng size in
      let phi =
        Formula.conj
          (List.map
             (fun x -> Formula.Lt (Formula.Var x, Formula.Num lim))
             vars)
      in
      let def =
        if Random.State.bool rng then Request.Ins_def (s.name, vars, phi)
        else Request.Del_def (s.name, vars, phi)
      in
      base @ [ def ]
  | _ -> base

let batch_qcheck =
  QCheck.Test.make
    ~name:
      "certified batch tick == singleton fold (answers and relations), \
       every backend, whole registry"
    ~count:60
    QCheck.(triple (int_range 1 100_000) (int_range 1 30) (oneofl qprogs))
    (fun (seed, length, name) ->
      let e = Registry.find name in
      let size = 6 in
      let rng = Random.State.make [| 0xDC; seed |] in
      let reqs = e.Registry.workload rng ~size ~length in
      let batch = lift_batch rng e.Registry.program ~size reqs in
      let s0 = Runner.init e.Registry.program ~size in
      let expanded = Request.expand_batch (Runner.structure s0) batch in
      List.for_all
        (fun backend ->
          let a = Runner.run ~backend s0 expanded in
          let b = Runner.step_batch ~backend s0 batch in
          Structure.equal (Runner.structure a) (Runner.structure b)
          && Runner.query ~backend a = Runner.query ~backend b)
        backends)

let par_batch_qcheck =
  QCheck.Test.make
    ~name:"parallel step_batch honors the same verdicts (1 and 4 lanes)"
    ~count:20
    QCheck.(triple (int_range 1 100_000) (int_range 1 20) (oneofl qprogs))
    (fun (seed, length, name) ->
      let e = Registry.find name in
      let size = 6 in
      let rng = Random.State.make [| 0xDC; seed |] in
      let reqs = e.Registry.workload rng ~size ~length in
      let batch = lift_batch rng e.Registry.program ~size reqs in
      let s0 = Runner.init e.Registry.program ~size in
      let expanded = Request.expand_batch (Runner.structure s0) batch in
      let want = Runner.run ~backend:`Delta s0 expanded in
      List.for_all
        (fun lanes ->
          Pool.with_pool ~lanes (fun pool ->
              let ps = Runner.init ~pool e.Registry.program ~size in
              let got = Runner.step_batch ~backend:`Delta ps batch in
              Structure.equal (Runner.structure want) (Runner.structure got)
              && Runner.query ~backend:`Delta want
                 = Runner.query ~backend:`Delta got))
        [ 1; 4 ])

let () =
  Alcotest.run "defchange"
    [
      ( "matrix",
        [
          Alcotest.test_case "verdicts are confirmed" `Quick
            test_matrix_confirmed;
          Alcotest.test_case "known verdicts" `Quick test_known_verdicts;
          Alcotest.test_case "mc-size 0 degrades to Unknown" `Quick
            test_mc_size_zero_is_unknown;
          Alcotest.test_case "mutation never absorbs" `Quick
            test_mutation_rejects_absorb;
        ] );
      ( "laws",
        [
          QCheck_alcotest.to_alcotest batch_qcheck;
          QCheck_alcotest.to_alcotest par_batch_qcheck;
        ] );
    ]
