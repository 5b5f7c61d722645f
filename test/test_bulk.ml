(* The set-at-a-time bitset backend (lib/logic/bitrel, bulk_eval;
   lib/engine/par_bulk): Bitrel representation properties, QCheck
   equivalence of Bulk_eval against the tuple-at-a-time Eval on random
   formulas and structures, the whole registry stepped in lockstep on
   both backends, and the pool-parallel bulk path.

   This suite is also the CI gate that keeps the bulk path from
   rotting: it replays every registry program's update rules (temps
   included) through Runner ~backend:`Bulk and compares the full
   combined structure — not just query answers — against the default
   backend after every request. *)

open Dynfo_logic
open Dynfo
open Dynfo_programs
open Dynfo_engine

let check = Alcotest.check
let tb = Alcotest.bool
let ti = Alcotest.int

(* --- Bitrel representation ---------------------------------------------- *)

let random_relation rng ~size ~arity =
  let count = Random.State.int rng (size * size * 2) in
  let tuples =
    List.init count (fun _ ->
        Array.init arity (fun _ -> Random.State.int rng size))
  in
  Relation.of_list ~arity tuples

let bitrel_roundtrip =
  QCheck.Test.make ~name:"of_relation |> to_relation = id" ~count:300
    QCheck.(triple (int_range 1 6) (int_range 0 3) (int_range 0 1000000))
    (fun (size, arity, seed) ->
      let rng = Random.State.make [| seed |] in
      let r = random_relation rng ~size ~arity in
      let b = Bitrel.of_relation ~size r in
      Relation.equal r (Bitrel.to_relation b)
      && Bitrel.popcount b = Relation.cardinal r)

let bitrel_kernels =
  QCheck.Test.make ~name:"word kernels agree with Relation algebra"
    ~count:300
    QCheck.(triple (int_range 1 6) (int_range 0 3) (int_range 0 1000000))
    (fun (size, arity, seed) ->
      let rng = Random.State.make [| seed |] in
      let r1 = random_relation rng ~size ~arity in
      let r2 = random_relation rng ~size ~arity in
      let b1 = Bitrel.of_relation ~size r1
      and b2 = Bitrel.of_relation ~size r2 in
      let same rel bit = Relation.equal rel (Bitrel.to_relation bit) in
      same (Relation.union r1 r2) (Bitrel.union b1 b2)
      && same (Relation.inter r1 r2) (Bitrel.inter b1 b2)
      && same (Relation.diff r1 r2) (Bitrel.diff b1 b2)
      && Bitrel.popcount (Bitrel.complement b1)
         = Bitrel.length b1 - Relation.cardinal r1
      && Bitrel.equal (Bitrel.complement (Bitrel.complement b1)) b1)

let test_bitrel_slab_project () =
  (* set_slab fills exactly the cylinder; project is the quantifier *)
  let n = 4 in
  let b = Bitrel.create ~size:n ~arity:3 in
  ignore (Bitrel.set_slab b [ (1, 2) ]);
  let expect = ref 0 in
  for x = 0 to n - 1 do
    for y = 0 to n - 1 do
      for z = 0 to n - 1 do
        let inb = Bitrel.mem b [| x; y; z |] in
        check tb "slab membership" (y = 2) inb;
        if inb then incr expect
      done
    done
  done;
  check ti "slab popcount" !expect (Bitrel.popcount b);
  (* ex z: projects the last coordinate out *)
  let ex = Bitrel.create ~size:n ~arity:2 in
  Bitrel.project `Or ~block:n ~src:b ~dst:ex ~word_lo:0
    ~word_hi:(Bitrel.word_count ex);
  for x = 0 to n - 1 do
    for y = 0 to n - 1 do
      check tb "exists" (y = 2) (Bitrel.mem ex [| x; y |])
    done
  done;
  (* all z: the slab constrains y only, so forall z holds on y = 2 *)
  let all = Bitrel.create ~size:n ~arity:2 in
  Bitrel.project `And ~block:n ~src:b ~dst:all ~word_lo:0
    ~word_hi:(Bitrel.word_count all);
  for x = 0 to n - 1 do
    for y = 0 to n - 1 do
      check tb "forall" (y = 2) (Bitrel.mem all [| x; y |])
    done
  done

let test_bitrel_zero_arity () =
  let t = Bitrel.create ~size:5 ~arity:0 in
  check tb "empty boolean" false (Bitrel.mem t [||]);
  ignore (Bitrel.set_slab t []);
  check tb "set boolean" true (Bitrel.mem t [||]);
  let f = Bitrel.full ~size:5 ~arity:0 in
  check tb "full boolean" true (Bitrel.equal t f);
  check ti "one bit" 1 (Bitrel.length t);
  (* the set-bit iterator sees exactly the one code of the one-bit space *)
  let codes = ref [] in
  Bitrel.iter_codes (fun c -> codes := c :: !codes) t;
  check tb "iter_codes on nullary" true (!codes = [ 0 ]);
  Bitrel.remove t [||];
  codes := [];
  Bitrel.iter_codes (fun c -> codes := c :: !codes) t;
  check tb "iter_codes on cleared nullary" true (!codes = [])

let test_bulk_zero_arity () =
  (* nullary definitions (parity's b) evaluate to a 0-ary relation that
     is either the empty set or the singleton [||] *)
  let v = Vocab.make ~rels:[ ("M", 1); ("b", 0) ] ~consts:[] in
  let st = ref (Structure.create ~size:5 v) in
  st := Structure.add_tuple !st "M" [| 3 |];
  List.iter
    (fun src ->
      let f = Parser.parse src in
      let seq = Eval.define !st ~vars:[] f in
      let bulk = Bulk_eval.define !st ~vars:[] f in
      check tb (src ^ " bulk == tuple (nullary)") true
        (Relation.equal seq bulk))
    [ "b()"; "~b()"; "ex x (M(x))"; "b() | all x (~M(x))" ];
  st := Structure.add_tuple !st "b" [||];
  let f = Parser.parse "b() & ex x (M(x))" in
  check tb "nullary true" true
    (Relation.mem (Bulk_eval.define !st ~vars:[] f) [||])

(* --- random-formula equivalence ------------------------------------------ *)

(* formulas over vocab <E^2, U^1, s, t> with terms drawn from the scope,
   the constants, numeric literals (in and out of range), min and max.
   Quantifiers draw names from a small pool, so shadowing of both outer
   quantifiers and the define vars is generated. *)
let random_formula rng ~size scope0 =
  let var_pool = [| "x"; "y"; "z"; "u"; "v" |] in
  let pick a = a.(Random.State.int rng (Array.length a)) in
  let term scope =
    match Random.State.int rng 8 with
    | 0 | 1 | 2 ->
        if scope = [] then Formula.Min
        else Formula.Var (List.nth scope (Random.State.int rng (List.length scope)))
    | 3 -> Formula.Var (pick [| "s"; "t" |])
    | 4 -> Formula.Num (Random.State.int rng (size + 3) - 1)
    | 5 -> Formula.Min
    | _ -> Formula.Max
  in
  let rec go depth scope =
    if depth = 0 then
      match Random.State.int rng 7 with
      | 0 -> Formula.Rel ("E", [ term scope; term scope ])
      | 1 -> Formula.Rel ("U", [ term scope ])
      | 2 -> Formula.Eq (term scope, term scope)
      | 3 -> Formula.Le (term scope, term scope)
      | 4 -> Formula.Lt (term scope, term scope)
      | 5 -> Formula.Bit (term scope, term scope)
      | _ -> if Random.State.bool rng then Formula.True else Formula.False
    else
      match Random.State.int rng 8 with
      | 0 -> Formula.Not (go (depth - 1) scope)
      | 1 -> Formula.And (go (depth - 1) scope, go (depth - 1) scope)
      | 2 -> Formula.Or (go (depth - 1) scope, go (depth - 1) scope)
      | 3 -> Formula.Implies (go (depth - 1) scope, go (depth - 1) scope)
      | 4 -> Formula.Iff (go (depth - 1) scope, go (depth - 1) scope)
      | 5 | 6 ->
          let k = 1 + Random.State.int rng 2 in
          let vs = List.init k (fun _ -> pick var_pool) in
          let body = go (depth - 1) (vs @ scope) in
          if Random.State.bool rng then Formula.Exists (vs, body)
          else Formula.Forall (vs, body)
      | _ -> go 0 scope
  in
  go (1 + Random.State.int rng 3) scope0

let random_structure rng ~size =
  let v = Vocab.make ~rels:[ ("E", 2); ("U", 1) ] ~consts:[ "s"; "t" ] in
  let st = ref (Structure.create ~size v) in
  for _ = 1 to Random.State.int rng (2 * size * size) do
    st :=
      Structure.add_tuple !st "E"
        [| Random.State.int rng size; Random.State.int rng size |]
  done;
  for _ = 1 to Random.State.int rng size do
    st := Structure.add_tuple !st "U" [| Random.State.int rng size |]
  done;
  st := Structure.with_const !st "s" (Random.State.int rng size);
  st := Structure.with_const !st "t" (Random.State.int rng size);
  !st

let bulk_matches_eval =
  QCheck.Test.make ~name:"Bulk_eval.define == Eval.define (random formulas)"
    ~count:400
    QCheck.(pair (int_range 1 6) (int_range 0 10000000))
    (fun (size, seed) ->
      let rng = Random.State.make [| seed; size |] in
      let st = random_structure rng ~size in
      let vars = [ "x"; "y" ] in
      let f = random_formula rng ~size vars in
      let seq = Eval.define st ~vars f in
      let bulk = Bulk_eval.define st ~vars f in
      if not (Relation.equal seq bulk) then
        QCheck.Test.fail_reportf "divergence at n=%d on %s@.tuple: %a@.bulk: %a"
          size (Formula.to_string f) Relation.pp seq Relation.pp bulk;
      true)

let bulk_holds_matches =
  QCheck.Test.make ~name:"Bulk_eval.holds == Eval.holds (random sentences)"
    ~count:300
    QCheck.(pair (int_range 1 6) (int_range 0 10000000))
    (fun (size, seed) ->
      let rng = Random.State.make [| seed; size; 7 |] in
      let st = random_structure rng ~size in
      let f = random_formula rng ~size [] in
      Eval.holds st f = Bulk_eval.holds st f)

let bulk_matches_eval_env =
  QCheck.Test.make ~name:"bulk == tuple with update-parameter env"
    ~count:200
    QCheck.(pair (int_range 2 6) (int_range 0 10000000))
    (fun (size, seed) ->
      let rng = Random.State.make [| seed; size; 13 |] in
      let st = random_structure rng ~size in
      (* a and b play the role of the update's tuple parameters *)
      let env =
        [ ("a", Random.State.int rng size); ("b", Random.State.int rng size) ]
      in
      let f = random_formula rng ~size [ "x"; "y"; "a"; "b" ] in
      let vars = [ "x"; "y" ] in
      Relation.equal (Eval.define st ~vars ~env f)
        (Bulk_eval.define st ~vars ~env f))

let test_bulk_error_parity () =
  let v = Vocab.make ~rels:[ ("E", 2) ] ~consts:[] in
  let st = Structure.create ~size:3 v in
  Alcotest.check_raises "unbound variable"
    (Eval.Unbound_variable "w")
    (fun () -> ignore (Bulk_eval.define st ~vars:[ "x" ] (Formula.rel_v "E" [ "x"; "w" ])));
  check tb "unknown relation" true
    (match Bulk_eval.define st ~vars:[ "x" ] (Formula.rel_v "F" [ "x"; "x" ]) with
    | exception Eval.Unknown_relation _ -> true
    | _ -> false);
  check tb "arity error" true
    (match Bulk_eval.define st ~vars:[ "x" ] (Formula.rel_v "E" [ "x" ]) with
    | exception Eval.Arity_error _ -> true
    | _ -> false)

(* --- the registry in lockstep on both backends --------------------------- *)

(* sizes 1..12 per program, clamped so the n^(k+rank) scope space of the
   widest rule stays testable — the same exponent the static analyzer
   computes (pad/k-edge programs hit n^8, which at n=12 would be 430M
   bits per node) *)
let sweep_sizes (e : Registry.entry) =
  let m = Dynfo_analysis.Metrics.of_program e.program in
  let exp =
    List.fold_left
      (fun acc (fm : Dynfo_analysis.Metrics.formula_metrics) ->
        max acc fm.work_exponent)
      m.max_work_exponent (m.rules @ m.queries)
  in
  List.filter
    (fun n -> float_of_int n ** float_of_int exp <= 500_000.)
    [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10; 11; 12 ]

let test_registry_lockstep () =
  List.iter
    (fun (e : Registry.entry) ->
      List.iter
        (fun size ->
          let rng = Random.State.make [| 2027; size |] in
          let reqs = e.workload rng ~size ~length:15 in
          let seq = ref (Runner.init e.program ~size) in
          let bulk = ref (Runner.init e.program ~size) in
          List.iteri
            (fun i r ->
              seq := Runner.step !seq r;
              bulk := Runner.step ~backend:`Bulk !bulk r;
              if
                not
                  (Structure.equal (Runner.structure !seq)
                     (Runner.structure !bulk))
              then
                Alcotest.failf "%s n=%d: structures diverge after request %d"
                  e.name size i;
              if Runner.query !seq <> Runner.query ~backend:`Bulk !bulk then
                Alcotest.failf "%s n=%d: query diverges after request %d"
                  e.name size i)
            reqs)
        (sweep_sizes e))
    Registry.all

(* --- the pool-parallel bulk path ----------------------------------------- *)

let test_par_bulk_define_matches () =
  let v = Vocab.make ~rels:[ ("E", 2) ] ~consts:[ "s" ] in
  let rng = Random.State.make [| 77 |] in
  Pool.with_pool ~lanes:4 (fun pool ->
      List.iter
        (fun size ->
          let st = ref (Structure.create ~size v) in
          for _ = 1 to 2 * size do
            let a = Random.State.int rng size
            and b = Random.State.int rng size in
            st := Structure.add_tuple !st "E" [| a; b |]
          done;
          List.iter
            (fun (vars, src) ->
              let f = Parser.parse src in
              let seq = Eval.define !st ~vars f in
              let bulk = Bulk_eval.define !st ~vars f in
              let par = Bulk_eval.define ~pool ~cutoff:0 !st ~vars f in
              check tb (src ^ " bulk == tuple") true (Relation.equal seq bulk);
              check tb (src ^ " par-bulk == bulk") true
                (Relation.equal bulk par))
            [
              ([ "x" ], "ex y (E(x, y))");
              ([ "x"; "y" ], "E(x, y) | E(y, x)");
              ([ "x"; "y" ], "ex z (E(x, z) & E(z, y) & x != y)");
              ([ "x"; "y"; "z" ], "E(x, y) & y <= z & ~E(z, s)");
              ([ "x"; "y" ], "all z (E(z, z) -> ex u (E(u, x) & u <= y))");
            ])
        [ 3; 7; 11 ])

let test_registry_par_bulk_agreement () =
  List.iter
    (fun lanes ->
      Pool.with_pool ~lanes (fun pool ->
          List.iter
            (fun name ->
              let e = Registry.find name in
              let size = min e.default_size 8 in
              let impls =
                Dyn.of_program e.program
                :: Dyn.of_program ~backend:`Bulk e.program
                :: Dyn.of_program ~pool ~cutoff:0 ~backend:`Bulk e.program
                :: Option.to_list e.static
              in
              let rng = Random.State.make [| 2028; lanes |] in
              let reqs = e.workload rng ~size ~length:25 in
              match Harness.compare_all ~size impls reqs with
              | Harness.Ok _ -> ()
              | m ->
                  Alcotest.failf "%s at %d lanes: %s" name lanes
                    (Format.asprintf "%a" Harness.pp_outcome m))
            [ "parity"; "reach_u"; "reach_acyclic"; "matching"; "mult" ]))
    [ 1; 2; 4 ]

let test_bulk_work_is_counted () =
  (* the bulk backend charges words to the same counter both backends
     report through; a non-trivial update must charge something *)
  let e = Registry.find "reach_u" in
  let s = Runner.init e.program ~size:6 in
  let _, w =
    Runner.step_work ~backend:`Bulk s (Request.ins "E" [ 0; 1 ])
  in
  check tb "bulk work > 0" true (w > 0)

let () =
  Alcotest.run "bulk"
    [
      ( "bitrel",
        [
          QCheck_alcotest.to_alcotest bitrel_roundtrip;
          QCheck_alcotest.to_alcotest bitrel_kernels;
          Alcotest.test_case "slab fill and projection" `Quick
            test_bitrel_slab_project;
          Alcotest.test_case "zero-arity booleans" `Quick
            test_bitrel_zero_arity;
        ] );
      ( "bulk_eval",
        [
          QCheck_alcotest.to_alcotest bulk_matches_eval;
          QCheck_alcotest.to_alcotest bulk_holds_matches;
          QCheck_alcotest.to_alcotest bulk_matches_eval_env;
          Alcotest.test_case "error parity with Eval" `Quick
            test_bulk_error_parity;
          Alcotest.test_case "zero-arity definitions" `Quick
            test_bulk_zero_arity;
          Alcotest.test_case "bulk work is counted" `Quick
            test_bulk_work_is_counted;
        ] );
      ( "registry",
        [
          Alcotest.test_case "all programs in lockstep, sizes 1-12" `Slow
            test_registry_lockstep;
        ] );
      ( "par_bulk",
        [
          Alcotest.test_case "define == bulk == tuple" `Quick
            test_par_bulk_define_matches;
          Alcotest.test_case "registry via harness at 1/2/4 lanes" `Slow
            test_registry_par_bulk_agreement;
        ] );
    ]
