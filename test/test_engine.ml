(* The parallel engine: the domain pool itself (lib/engine), the three
   evaluators on a multi-lane pool against the same evaluators inline,
   and the full registry swept through the harness with the parallel
   runner at 1, 2 and 4 lanes against the sequential runner and the
   static oracles. Parallel paths are forced with ~cutoff:0 so small
   test universes exercise them. *)

open Dynfo_logic
open Dynfo
open Dynfo_programs
open Dynfo_engine

let check = Alcotest.check
let tb = Alcotest.bool
let ti = Alcotest.int

(* --- the pool ----------------------------------------------------------- *)

let test_pool_parallel_for () =
  Pool.with_pool ~lanes:4 (fun pool ->
      List.iter
        (fun (lo, hi, chunk) ->
          let hits = Array.make (max 1 hi) 0 in
          Pool.parallel_for pool ?chunk ~lo ~hi (fun ~lane:_ l r ->
              for i = l to r - 1 do
                hits.(i) <- hits.(i) + 1
              done);
          for i = 0 to Array.length hits - 1 do
            let want = if i >= lo && i < hi then 1 else 0 in
            check ti (Printf.sprintf "index %d covered once" i) want hits.(i)
          done)
        [ (0, 1000, None); (3, 17, Some 1); (0, 5, Some 100); (7, 7, None) ])

let test_pool_run_all_lanes () =
  Pool.with_pool ~lanes:3 (fun pool ->
      check ti "3 lanes" 3 (Pool.lanes pool);
      let seen = Array.make 3 0 in
      Pool.run pool (fun lane -> seen.(lane) <- seen.(lane) + 1);
      Array.iteri
        (fun i c -> check ti (Printf.sprintf "lane %d ran once" i) 1 c)
        seen)

exception Boom

let test_pool_exception_propagates () =
  Pool.with_pool ~lanes:4 (fun pool ->
      check tb "raises" true
        (match
           Pool.parallel_for pool ~chunk:1 ~lo:0 ~hi:64 (fun ~lane:_ l _ ->
               if l = 13 then raise Boom)
         with
        | () -> false
        | exception Boom -> true);
      (* the pool survives a failed job *)
      let total = Atomic.make 0 in
      Pool.parallel_for pool ~lo:0 ~hi:100 (fun ~lane:_ l r ->
          for i = l to r - 1 do
            ignore (Atomic.fetch_and_add total i)
          done);
      check ti "usable after exception" 4950 (Atomic.get total))

(* --- each evaluator on a 4-lane pool vs inline ------------------------- *)

(* The pool runs each evaluator's one kernel per chunk instead of once
   over the whole range, so on any pool the relation and the work count
   must equal the inline run's — for the tuple, bulk and delta
   evaluators alike. The delta rules are framed (target [R] as a conjunct
   of one disjunct): [x = a] pins both frame sides to a row of [n]
   tuples, which passes the 32-code small-frontier threshold from n = 17
   (the persistent mask's [`Mask_words] frontier), and [E(x, y)] leaves
   the out side unbounded, so the stateless [`Mask] of the members of
   [R] is re-tested too. *)
let test_par_define_matches () =
  let v = Vocab.make ~rels:[ ("E", 2); ("R", 2) ] ~consts:[ "s" ] in
  let rng = Random.State.make [| 99 |] in
  let same what seq par =
    let (rs, ws), (rp, wp) = (Eval.with_work seq, Eval.with_work par) in
    check tb (what ^ " same relation") true (Relation.equal rs rp);
    check ti (what ^ " same work") ws wp
  in
  Pool.with_pool ~lanes:4 (fun pool ->
      List.iter
        (fun size ->
          let st = ref (Structure.create ~size v) in
          for _ = 1 to 2 * size do
            let a = Random.State.int rng size
            and b = Random.State.int rng size in
            st := Structure.add_tuple !st "E" [| a; b |];
            st := Structure.add_tuple !st "R" [| b; a |]
          done;
          List.iter
            (fun (vars, src) ->
              let f = Parser.parse src in
              same ("tuple " ^ src)
                (fun () -> Eval.define !st ~vars f)
                (fun () -> Eval.define ~pool ~cutoff:0 !st ~vars f);
              same ("bulk " ^ src)
                (fun () -> Bulk_eval.define !st ~vars f)
                (fun () -> Bulk_eval.define ~pool ~cutoff:0 !st ~vars f))
            [
              ([ "x" ], "ex y (E(x, y))");
              ([ "x"; "y" ], "E(x, y) | E(y, x)");
              ([ "x"; "y" ], "ex z (E(x, z) & E(z, y) & x != y)");
              ([ "x"; "y"; "z" ], "E(x, y) & y <= z & ~E(z, s)");
            ];
          let env = [ ("a", Random.State.int rng size) ] in
          List.iter
            (fun src ->
              let body = Parser.parse src in
              let plan =
                Dynfo_analysis.Support.plan_rule
                  { Program.target = "R"; vars = [ "x"; "y" ]; body }
              in
              List.iter
                (fun fallback ->
                  let define ?pool () =
                    Delta_eval.define ~cache:(Delta_eval.new_cache ())
                      ~fallback ?pool ~cutoff:0 !st ~env plan
                  in
                  same ("delta " ^ src) define (fun () -> define ~pool ());
                  check tb ("delta " ^ src ^ " == tuple") true
                    (Relation.equal (define ())
                       (Eval.define !st ~vars:[ "x"; "y" ] ~env body)))
                [ `Tuple; `Bulk ])
            [
              "(R(x, y) & x != a) | (x = a & ex z (E(y, z) & E(z, s)))";
              "(R(x, y) & E(x, y)) | (x = a & y = s)";
            ])
        [ 3; 7; 11; 20 ])

(* --- the registry under the parallel runner ------------------------------ *)

let sweep_sizes (e : Registry.entry) = min e.default_size 8

let test_registry_parallel_agreement () =
  List.iter
    (fun lanes ->
      Pool.with_pool ~lanes (fun pool ->
          List.iter
            (fun (e : Registry.entry) ->
              let size = sweep_sizes e in
              let impls =
                Dyn.of_program e.program
                :: Dyn.of_program ~pool ~cutoff:0 e.program
                :: Option.to_list e.static
              in
              let rng = Random.State.make [| 2026; lanes |] in
              let reqs = e.workload rng ~size ~length:25 in
              match Harness.compare_all ~size impls reqs with
              | Harness.Ok _ -> ()
              | m ->
                  Alcotest.failf "%s at %d lanes: %s" e.name lanes
                    (Format.asprintf "%a" Harness.pp_outcome m))
            Registry.all))
    [ 1; 2; 4 ]

let test_noop_requests () =
  (* inserting a present tuple / deleting an absent one must leave the
     parallel runner in agreement too (the programs are written to be
     no-ops there, and the engine must not disturb that) *)
  let e = Registry.find "reach_u" in
  let reqs =
    [
      Request.set "s" 0; Request.set "t" 3;
      Request.ins "E" [ 0; 1 ]; Request.ins "E" [ 0; 1 ];
      (* duplicate insert *)
      Request.del "E" [ 2; 3 ];
      (* absent delete *)
      Request.ins "E" [ 1; 3 ]; Request.del "E" [ 0; 1 ];
      Request.del "E" [ 0; 1 ];
      (* delete again *)
      Request.ins "E" [ 0; 3 ];
    ]
  in
  Pool.with_pool ~lanes:4 (fun pool ->
      let impls =
        [
          Dyn.of_program e.program; Dyn.of_program ~pool ~cutoff:0 e.program;
        ]
        @ Option.to_list e.static
      in
      match Harness.compare_all ~size:5 impls reqs with
      | Harness.Ok n -> check ti "all checkpoints" (List.length reqs) n
      | m ->
          Alcotest.failf "no-op divergence: %s"
            (Format.asprintf "%a" Harness.pp_outcome m))

let test_step_work_matches_sequential () =
  (* the engine partitions the same enumeration, so per-request FO work
     is identical to the sequential runner's *)
  List.iter
    (fun name ->
      let e = Registry.find name in
      let size = sweep_sizes e in
      let rng = Random.State.make [| 4; 2 |] in
      let reqs = e.workload rng ~size ~length:12 in
      Pool.with_pool ~lanes:4 (fun pool ->
          let seq = ref (Runner.init e.program ~size) in
          let par = ref (Runner.init ~pool ~cutoff:0 e.program ~size) in
          List.iteri
            (fun i r ->
              let s', ws = Runner.step_work !seq r in
              let p', wp = Runner.step_work !par r in
              seq := s';
              par := p';
              check ti
                (Printf.sprintf "%s request %d work" name i)
                ws wp)
            reqs))
    [ "parity"; "reach_u"; "mult" ]

let () =
  Alcotest.run "engine"
    [
      ( "pool",
        [
          Alcotest.test_case "parallel_for covers exactly" `Quick
            test_pool_parallel_for;
          Alcotest.test_case "run reaches every lane" `Quick
            test_pool_run_all_lanes;
          Alcotest.test_case "exceptions propagate, pool survives" `Quick
            test_pool_exception_propagates;
        ] );
      ( "par_eval",
        [
          Alcotest.test_case "define == sequential define" `Quick
            test_par_define_matches;
        ] );
      ( "par_runner",
        [
          Alcotest.test_case "registry sweep at 1/2/4 lanes" `Slow
            test_registry_parallel_agreement;
          Alcotest.test_case "no-op requests" `Quick test_noop_requests;
          Alcotest.test_case "work counts match sequential" `Quick
            test_step_work_matches_sequential;
        ] );
    ]
