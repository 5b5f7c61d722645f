(* The incremental delta backend (lib/logic/delta_eval,
   lib/analysis/support): QCheck laws for symmetric_diff and
   dirty-frontier soundness, random framed rules evaluated on all three
   backends, error parity, nullary rules, the whole registry stepped in
   lockstep under `Delta with the advisor-installed planner, and the
   pool-parallel frontier path at 1/2/4 lanes.

   The frontier-soundness property is the backend's one-directional
   soundness obligation: supports may overapproximate freely because the
   full body is re-tested on every frontier tuple, but every tuple that
   actually changes value MUST lie inside the computed frontier (or the
   step must have widened to a full recompute). *)

open Dynfo_logic
open Dynfo
open Dynfo_programs
open Dynfo_engine

let check = Alcotest.check
let tb = Alcotest.bool
let ti = Alcotest.int

(* --- Relation.symmetric_diff --------------------------------------------- *)

let random_relation rng ~size ~arity =
  let count = Random.State.int rng (size * size * 2) in
  let tuples =
    List.init count (fun _ ->
        Array.init arity (fun _ -> Random.State.int rng size))
  in
  Relation.of_list ~arity tuples

let symdiff_matches_reference =
  QCheck.Test.make
    ~name:"symmetric_diff == membership-xor reference" ~count:300
    QCheck.(triple (int_range 1 6) (int_range 0 3) (int_range 0 1000000))
    (fun (size, arity, seed) ->
      let rng = Random.State.make [| seed |] in
      let a = random_relation rng ~size ~arity in
      let b = random_relation rng ~size ~arity in
      let d = Relation.symmetric_diff a b in
      (* reference: a tuple is in the symmetric difference iff its
         memberships differ; candidates beyond a ∪ b are never in it *)
      let expected = ref 0 in
      let see t =
        let want = Relation.mem a t <> Relation.mem b t in
        if want then incr expected;
        if Relation.mem d t <> want then
          QCheck.Test.fail_reportf "wrong membership for %s"
            (Tuple.to_string t)
      in
      Relation.iter see a;
      (* tuples in both relations are seen twice; count via d instead *)
      Relation.iter (fun t -> if not (Relation.mem a t) then see t) b;
      Relation.iter
        (fun t ->
          if not (Relation.mem a t || Relation.mem b t) then
            QCheck.Test.fail_reportf "phantom tuple %s" (Tuple.to_string t))
        d;
      true)

let symdiff_laws =
  QCheck.Test.make ~name:"symmetric_diff laws" ~count:200
    QCheck.(triple (int_range 1 5) (int_range 0 3) (int_range 0 1000000))
    (fun (size, arity, seed) ->
      let rng = Random.State.make [| seed; 3 |] in
      let a = random_relation rng ~size ~arity in
      let b = random_relation rng ~size ~arity in
      Relation.equal (Relation.symmetric_diff a b)
        (Relation.symmetric_diff b a)
      && Relation.cardinal (Relation.symmetric_diff a a) = 0
      && Relation.equal (Relation.symmetric_diff a (Relation.of_list ~arity []))
           a)

(* --- random framed rules: frontier soundness and 3-backend agreement ----- *)

(* bodies in frame shape (R(x,y) ∧ A) ∨ C over vocab <E^2, U^1, R^2, s, t>
   with update parameters a, b in the env; A and C draw quantifiers from
   a pool overlapping the tuple vars, so shadowing is exercised. This is
   the shape Support.find_frame recognizes — exactly what the planner
   sees on real update rules. *)
let random_formula rng ~size scope0 =
  let var_pool = [| "x"; "y"; "z"; "u" |] in
  let pick a = a.(Random.State.int rng (Array.length a)) in
  let term scope =
    match Random.State.int rng 8 with
    | 0 | 1 | 2 ->
        if scope = [] then Formula.Min
        else
          Formula.Var (List.nth scope (Random.State.int rng (List.length scope)))
    | 3 -> Formula.Var (pick [| "s"; "t"; "a"; "b" |])
    | 4 -> Formula.Num (Random.State.int rng (size + 2) - 1)
    | 5 -> Formula.Min
    | _ -> Formula.Max
  in
  let rec go depth scope =
    if depth = 0 then
      match Random.State.int rng 8 with
      | 0 -> Formula.Rel ("E", [ term scope; term scope ])
      | 1 -> Formula.Rel ("U", [ term scope ])
      | 2 -> Formula.Rel ("R", [ term scope; term scope ])
      | 3 -> Formula.Eq (term scope, term scope)
      | 4 -> Formula.Le (term scope, term scope)
      | 5 -> Formula.Lt (term scope, term scope)
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
  go (1 + Random.State.int rng 2) scope0

let random_structure rng ~size =
  let v =
    Vocab.make ~rels:[ ("E", 2); ("U", 1); ("R", 2) ] ~consts:[ "s"; "t" ]
  in
  let st = ref (Structure.create ~size v) in
  for _ = 1 to Random.State.int rng (2 * size * size) do
    st :=
      Structure.add_tuple !st "E"
        [| Random.State.int rng size; Random.State.int rng size |]
  done;
  for _ = 1 to Random.State.int rng size do
    st := Structure.add_tuple !st "U" [| Random.State.int rng size |]
  done;
  for _ = 1 to Random.State.int rng (size * size) do
    st :=
      Structure.add_tuple !st "R"
        [| Random.State.int rng size; Random.State.int rng size |]
  done;
  st := Structure.with_const !st "s" (Random.State.int rng size);
  st := Structure.with_const !st "t" (Random.State.int rng size);
  !st

(* [~pinned:true] ORs pinned disjuncts into A and C so that both frame
   sides are pinned cylinders of [size] tuples: members may leave only
   at x = b, non-members enter only at x = a or y = b. From size 13 such
   a frontier (up to 3 * size codes) passes the 32-code small-frontier
   threshold while staying under the budget (a quarter of size^2), which
   is the persistent-mask path. *)
let random_framed_rule ?(pinned = false) rng ~size =
  let vars = [ "x"; "y" ] in
  let scope = vars @ [ "a"; "b" ] in
  let a = random_formula rng ~size scope in
  let c = random_formula rng ~size scope in
  let a, c =
    if not pinned then (a, c)
    else
      let eq v p = Formula.Eq (Formula.Var v, Formula.Var p) in
      ( Formula.Or (a, Formula.Not (eq "x" "b")),
        Formula.Or
          ( Formula.And (eq "x" "a", c),
            Formula.And (eq "y" "b", random_formula rng ~size scope) ) )
  in
  let body =
    Formula.Or
      ( Formula.And
          (Formula.Rel ("R", [ Formula.Var "x"; Formula.Var "y" ]), a),
        c )
  in
  ({ Program.target = "R"; vars; body } : Program.rule)

(* The two laws below draw half their rules with [~pinned:true] at sizes
   up to 20, where a pinned frontier (up to 3 * size codes) fits under
   the quarter-of-the-space budget: without pinned rules nearly every
   slab-only frontier the generator yields is empty, and the laws would
   almost never re-test a non-empty frontier. Each law counts the cases
   whose (stateless) frontier is a non-empty mask or tuple list, and its
   test case asserts that at least a fifth of the cases were. *)
type frontier_share = { mutable cases : int; mutable nonempty : int }

let count_frontier share (fr : Delta_eval.frontier) =
  share.cases <- share.cases + 1;
  let nonempty =
    match fr with
    | `Full -> false
    | `Tuples tups -> tups <> []
    | `Mask m -> not (Bitrel.is_empty m)
    | `Mask_words (m, ws) -> Bitrel.popcount_words m ws > 0
  in
  if nonempty then share.nonempty <- share.nonempty + 1

let with_frontier_share share test =
  let name, speed, run = QCheck_alcotest.to_alcotest test in
  ( name,
    speed,
    fun () ->
      share.cases <- 0;
      share.nonempty <- 0;
      run ();
      if 5 * share.nonempty < share.cases then
        Alcotest.failf "only %d of %d cases re-tested a non-empty frontier"
          share.nonempty share.cases )

let frontier_sound_share = { cases = 0; nonempty = 0 }

let frontier_sound =
  QCheck.Test.make
    ~name:"every flipped tuple lies in the frontier (or `Full)" ~count:400
    QCheck.(pair (int_range 2 20) (int_range 0 10000000))
    (fun (size, seed) ->
      let rng = Random.State.make [| seed; size; 5 |] in
      let st = random_structure rng ~size in
      let env =
        [ ("a", Random.State.int rng size); ("b", Random.State.int rng size) ]
      in
      let rule = random_framed_rule ~pinned:(Random.State.bool rng) rng ~size in
      let plan = Dynfo_analysis.Support.plan_rule rule in
      if plan.Delta_eval.rp_frame = None then
        QCheck.Test.fail_reportf "frame not found for %s"
          (Formula.to_string rule.body);
      let base = Structure.rel st "R" in
      let full = Eval.define st ~vars:rule.vars ~env rule.body in
      let fr = Delta_eval.frontier st ~env ~base plan in
      count_frontier frontier_sound_share fr;
      (match fr with
      | `Full -> ()
      | `Tuples tups ->
          Relation.iter
            (fun t ->
              if not (List.exists (fun u -> Tuple.compare u t = 0) tups) then
                QCheck.Test.fail_reportf
                  "flipped tuple %s outside fast-path frontier for %s"
                  (Tuple.to_string t)
                  (Formula.to_string rule.body))
            (Relation.symmetric_diff base full)
      | `Mask mask ->
          Relation.iter
            (fun t ->
              if not (Bitrel.mem mask t) then
                QCheck.Test.fail_reportf
                  "flipped tuple %s outside frontier for %s"
                  (Tuple.to_string t)
                  (Formula.to_string rule.body))
            (Relation.symmetric_diff base full)
      | `Mask_words _ ->
          (* the stateless reference never maintains a persistent mask *)
          QCheck.Test.fail_reportf "stateless frontier returned `Mask_words");
      true)

(* one evaluation through a fresh frontier cache *)
let define_once ?fallback st ?env plan =
  Delta_eval.define ~cache:(Delta_eval.new_cache ()) ?fallback st ?env plan

let delta_matches_share = { cases = 0; nonempty = 0 }

let delta_matches_eval_and_bulk =
  QCheck.Test.make
    ~name:"Delta_eval.define == Eval.define == Bulk_eval.define"
    ~count:400
    QCheck.(pair (int_range 2 20) (int_range 0 10000000))
    (fun (size, seed) ->
      let rng = Random.State.make [| seed; size; 11 |] in
      let st = random_structure rng ~size in
      let env =
        [ ("a", Random.State.int rng size); ("b", Random.State.int rng size) ]
      in
      let rule = random_framed_rule ~pinned:(Random.State.bool rng) rng ~size in
      let plan = Dynfo_analysis.Support.plan_rule rule in
      count_frontier delta_matches_share
        (Delta_eval.frontier st ~env ~base:(Structure.rel st "R") plan);
      let seq = Eval.define st ~vars:rule.vars ~env rule.body in
      let bulk = Bulk_eval.define st ~vars:rule.vars ~env rule.body in
      let fallback = if Random.State.bool rng then `Tuple else `Bulk in
      let delta = define_once ~fallback st ~env plan in
      if not (Relation.equal seq delta && Relation.equal seq bulk) then
        QCheck.Test.fail_reportf "divergence at n=%d on %s@.tuple: %a@.delta: %a"
          size
          (Formula.to_string rule.body)
          Relation.pp seq Relation.pp delta;
      true)

let delta_cutoff_zero_matches =
  (* cutoff 0 widens every step to `Full: the fallback path must still
     agree (and restores that --delta-cutoff is behaviour-preserving) *)
  QCheck.Test.make ~name:"cutoff 0.0 (always fall back) still agrees"
    ~count:100
    QCheck.(pair (int_range 2 5) (int_range 0 10000000))
    (fun (size, seed) ->
      let rng = Random.State.make [| seed; size; 17 |] in
      let st = random_structure rng ~size in
      let env = [ ("a", Random.State.int rng size); ("b", 0) ] in
      let rule = random_framed_rule rng ~size in
      let plan = Dynfo_analysis.Support.plan_rule rule in
      let seq = Eval.define st ~vars:rule.vars ~env rule.body in
      Delta_eval.set_cutoff 0.0;
      let delta =
        Fun.protect
          ~finally:(fun () ->
            Delta_eval.set_cutoff Delta_eval.default_cutoff)
          (fun () -> define_once ~fallback:`Tuple st ~env plan)
      in
      Relation.equal seq delta)

(* --- error parity and edge cases ----------------------------------------- *)

let plan_of ~target ~vars body =
  Dynfo_analysis.Support.plan_rule { Program.target; vars; body }

let test_delta_error_parity () =
  (* delta compiles the full body before looking at the frontier, so the
     compile-time errors of the tuple backend surface identically even
     when the dirty frontier would be empty *)
  let v = Vocab.make ~rels:[ ("E", 2); ("R", 1) ] ~consts:[] in
  let st = Structure.create ~size:3 v in
  let framed c =
    Formula.Or (Formula.And (Formula.rel_v "R" [ "x" ], Formula.True), c)
  in
  Alcotest.check_raises "unbound variable" (Eval.Unbound_variable "w")
    (fun () ->
      ignore
        (define_once st
           (plan_of ~target:"R" ~vars:[ "x" ]
              (framed (Formula.rel_v "E" [ "x"; "w" ])))));
  check tb "unknown relation" true
    (match
       define_once st
         (plan_of ~target:"R" ~vars:[ "x" ]
            (framed (Formula.rel_v "F" [ "x" ])))
     with
    | exception Eval.Unknown_relation _ -> true
    | _ -> false);
  check tb "arity error" true
    (match
       define_once st
         (plan_of ~target:"R" ~vars:[ "x" ]
            (framed (Formula.rel_v "E" [ "x" ])))
     with
    | exception Eval.Arity_error _ -> true
    | _ -> false)

let test_delta_zero_arity () =
  (* nullary rules (parity's b) have a one-bit tuple space; the frame
     machinery must handle arity 0 on both the frontier and splice *)
  let v = Vocab.make ~rels:[ ("M", 1); ("b", 0) ] ~consts:[] in
  let st = ref (Structure.create ~size:5 v) in
  st := Structure.add_tuple !st "M" [| 2 |];
  st := Structure.add_tuple !st "b" [||];
  let body =
    (* b' = (b ∧ M(0)) ∨ ¬M(2): frame with A = M(0), C = ¬M(2) *)
    Formula.Or
      ( Formula.And
          (Formula.Rel ("b", []), Formula.Rel ("M", [ Formula.Num 0 ])),
        Formula.Not (Formula.Rel ("M", [ Formula.Num 2 ])) )
  in
  let plan = plan_of ~target:"b" ~vars:[] body in
  check tb "nullary rule framed" true (plan.Delta_eval.rp_frame <> None);
  let seq = Eval.define !st ~vars:[] body in
  let delta = define_once !st plan in
  check tb "nullary delta == tuple (true state)" true
    (Relation.equal seq delta);
  st := Structure.with_rel !st "b" (Relation.of_list ~arity:0 []);
  check tb "nullary delta == tuple (false state)" true
    (Relation.equal (Eval.define !st ~vars:[] body) (define_once !st plan))

let test_unframed_plan_falls_back () =
  (* a body whose disjuncts never carry the target atom gets no frame;
     define must silently recompute in full on the fallback backend *)
  let v = Vocab.make ~rels:[ ("E", 2); ("R", 2) ] ~consts:[] in
  let st = ref (Structure.create ~size:4 v) in
  st := Structure.add_tuple !st "E" [| 1; 2 |];
  let body = Formula.rel_v "E" [ "y"; "x" ] in
  let plan = plan_of ~target:"R" ~vars:[ "x"; "y" ] body in
  check tb "no frame" true (plan.Delta_eval.rp_frame = None);
  List.iter
    (fun fallback ->
      check tb "fallback agrees" true
        (Relation.equal
           (Eval.define !st ~vars:[ "x"; "y" ] body)
           (define_once ~fallback !st plan)))
    [ `Tuple; `Bulk ]

(* --- the registry in lockstep on all three backends ----------------------- *)

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
  (* the advisor's planner drives the delta backend exactly as the CLI
     does; the conservative default would make this test vacuous *)
  Dynfo_analysis.Advisor.install ();
  List.iter
    (fun (e : Registry.entry) ->
      List.iter
        (fun size ->
          let rng = Random.State.make [| 2029; size |] in
          let reqs = e.workload rng ~size ~length:15 in
          let seq = ref (Runner.init e.program ~size) in
          let bulk = ref (Runner.init e.program ~size) in
          let delta = ref (Runner.init e.program ~size) in
          List.iteri
            (fun i r ->
              seq := Runner.step !seq r;
              bulk := Runner.step ~backend:`Bulk !bulk r;
              delta := Runner.step ~backend:`Delta !delta r;
              if
                not
                  (Structure.equal (Runner.structure !seq)
                     (Runner.structure !delta))
              then
                Alcotest.failf
                  "%s n=%d: delta structure diverges after request %d" e.name
                  size i;
              if
                not
                  (Structure.equal (Runner.structure !seq)
                     (Runner.structure !bulk))
              then
                Alcotest.failf
                  "%s n=%d: bulk structure diverges after request %d" e.name
                  size i;
              if Runner.query !seq <> Runner.query ~backend:`Delta !delta then
                Alcotest.failf "%s n=%d: query diverges after request %d"
                  e.name size i)
            reqs)
        (sweep_sizes e))
    Registry.all

let test_registry_work_not_worse () =
  (* the headline property behind E22: on the showcase programs the
     delta backend's measured work is strictly below the tuple
     backend's on the same workload *)
  Dynfo_analysis.Advisor.install ();
  List.iter
    (fun name ->
      let e = Registry.find name in
      let size = e.default_size in
      let rng = Random.State.make [| 2030 |] in
      let reqs = e.workload rng ~size ~length:60 in
      let total backend =
        let _, works =
          Runner.run_work ~backend (Runner.init e.program ~size) reqs
        in
        List.fold_left ( + ) 0 works
      in
      let t = total `Tuple and d = total `Delta in
      if d >= t then
        Alcotest.failf "%s: delta work %d >= tuple work %d" name d t)
    [ "parity"; "matching"; "reach_acyclic"; "lca" ]

(* --- the pool-parallel frontier path -------------------------------------- *)

let test_par_delta_define_matches () =
  Dynfo_analysis.Advisor.install ();
  let rng = Random.State.make [| 99 |] in
  Pool.with_pool ~lanes:4 (fun pool ->
      List.iter
        (fun size ->
          for _ = 1 to 40 do
            let st = random_structure rng ~size in
            let env =
              [
                ("a", Random.State.int rng size);
                ("b", Random.State.int rng size);
              ]
            in
            (* pinned rules at n >= 13 reach the mask frontiers *)
            let rule =
              random_framed_rule ~pinned:(Random.State.bool rng) rng ~size
            in
            let plan = Dynfo_analysis.Support.plan_rule rule in
            let seq = Eval.define st ~vars:rule.vars ~env rule.body in
            List.iter
              (fun fallback ->
                (* cutoff 0 forces the chunked path whenever the mask is
                   non-empty and lanes > 1 *)
                let par =
                  Delta_eval.define ~cache:(Delta_eval.new_cache ()) ~fallback
                    ~pool ~cutoff:0 st ~env plan
                in
                if not (Relation.equal seq par) then
                  Alcotest.failf "par-delta diverges at n=%d on %s" size
                    (Formula.to_string rule.body))
              [ `Tuple; `Bulk ]
          done)
        [ 3; 5; 7; 14; 20 ])

let test_registry_par_delta_agreement () =
  Dynfo_analysis.Advisor.install ();
  List.iter
    (fun lanes ->
      Pool.with_pool ~lanes (fun pool ->
          List.iter
            (fun name ->
              let e = Registry.find name in
              let size = min e.default_size 8 in
              let impls =
                Dyn.of_program e.program
                :: Dyn.of_program ~backend:`Delta e.program
                :: Dyn.of_program ~pool ~cutoff:0 ~backend:`Delta e.program
                :: Option.to_list e.static
              in
              let rng = Random.State.make [| 2031; lanes |] in
              let reqs = e.workload rng ~size ~length:25 in
              match Harness.compare_all ~size impls reqs with
              | Harness.Ok _ -> ()
              | m ->
                  Alcotest.failf "%s at %d lanes: %s" name lanes
                    (Format.asprintf "%a" Harness.pp_outcome m))
            [ "parity"; "reach_u"; "reach_acyclic"; "matching"; "mult" ]))
    [ 1; 2; 4 ]

(* --- persistent frontier state (E25) --------------------------------------- *)

(* Canonical form of a frontier: [None] for `Full, otherwise the sorted
   set of its tuples. [`Mask_words] borrows the persistent buffer, so
   callers materialise inside [with_frontier]'s callback. *)
let frontier_tuples ~size ~arity (fr : Delta_eval.frontier) =
  match fr with
  | `Full -> None
  | `Tuples tups -> Some (List.sort_uniq Tuple.compare tups)
  | `Mask m ->
      let acc = ref [] in
      Bitrel.iter_codes (fun c -> acc := Tuple.decode ~size ~arity c :: !acc) m;
      Some (List.sort_uniq Tuple.compare !acc)
  | `Mask_words (m, ws) ->
      let acc = ref [] in
      List.iter
        (fun w ->
          Bitrel.iter_codes_between
            (fun c -> acc := Tuple.decode ~size ~arity c :: !acc)
            m ~word_lo:w ~word_hi:(w + 1))
        ws;
      Some (List.sort_uniq Tuple.compare !acc)

(* The central law of the persistent-state rewrite: after ANY history of
   churn, budget collapses and target updates, the warm stateful
   frontier is the same set (and the same `Full decision) as a frontier
   built from scratch by the stateless reference. One cache serves the
   whole history, as a runner's does. Half the rules are pinned and
   sizes reach 20, so that frontiers pass the 32-code small-frontier
   threshold under the budget and the persistent-mask path is compared
   too. *)
let stateful_frontier_matches_stateless =
  QCheck.Test.make
    ~name:"warm frontier_state == stateless frontier under churn" ~count:120
    QCheck.(pair (int_range 2 20) (int_range 0 10000000))
    (fun (size, seed) ->
      let rng = Random.State.make [| seed; size; 23 |] in
      let rule = random_framed_rule ~pinned:(Random.State.bool rng) rng ~size in
      let plan = Dynfo_analysis.Support.plan_rule rule in
      let cache = Delta_eval.new_cache () in
      let st = ref (random_structure rng ~size) in
      Fun.protect
        ~finally:(fun () -> Delta_eval.set_cutoff Delta_eval.default_cutoff)
        (fun () ->
          for _step = 1 to 10 do
            (* churn every relation the supports can depend on *)
            for _ = 1 to 1 + Random.State.int rng 5 do
              let name, t =
                match Random.State.int rng 3 with
                | 0 ->
                    ( "E",
                      [| Random.State.int rng size; Random.State.int rng size |]
                    )
                | 1 -> ("U", [| Random.State.int rng size |])
                | _ ->
                    ( "R",
                      [| Random.State.int rng size; Random.State.int rng size |]
                    )
              in
              st :=
                (if Random.State.bool rng then Structure.add_tuple !st name t
                 else Structure.del_tuple !st name t)
            done;
            if Random.State.int rng 4 = 0 then
              st := Structure.with_const !st "s" (Random.State.int rng size);
            let env =
              [
                ("a", Random.State.int rng size);
                ("b", Random.State.int rng size);
              ]
            in
            (* collapse the budget on some steps: the `Full fallback
               must leave the warm state able to resync afterwards *)
            Delta_eval.set_cutoff
              (if Random.State.int rng 4 = 0 then 0.03
               else Delta_eval.default_cutoff);
            let base = Structure.rel !st "R" in
            let expect =
              frontier_tuples ~size ~arity:2
                (Delta_eval.frontier !st ~env ~base plan)
            in
            let got =
              Delta_eval.with_frontier ~cache !st ~env plan
                (frontier_tuples ~size ~arity:2)
            in
            (match (expect, got) with
            | None, None -> ()
            | Some a, Some b
              when List.length a = List.length b
                   && List.for_all2 (fun x y -> Tuple.compare x y = 0) a b ->
                ()
            | _ ->
                QCheck.Test.fail_reportf
                  "stateful frontier diverges from stateless on %s"
                  (Formula.to_string rule.body));
            (* push the rule's own output back into the target so the
               next round exercises dirty-word clears and anchor patches
               against genuine target churn *)
            st :=
              Structure.with_rel !st "R"
                (Delta_eval.define ~cache !st ~env plan)
          done);
      true)

let test_stateful_frontier_matches_stateless =
  let name, speed, run =
    QCheck_alcotest.to_alcotest stateful_frontier_matches_stateless
  in
  ( name,
    speed,
    fun () ->
      let reuse0 = Delta_eval.mask_reuse_hits () in
      run ();
      check tb "the persistent-mask path was compared" true
        (Delta_eval.mask_reuse_hits () > reuse0) )

(* Budget-fallback -> resync across the whole registry, sequential and
   pool-parallel: mid-run the cutoff collapses to 0 (every framed rule
   widens to a full recompute behind the warm state's back), then
   restores — the per-plan masks and anchor caches must catch up. *)
let test_registry_cutoff_resync () =
  Dynfo_analysis.Advisor.install ();
  Fun.protect
    ~finally:(fun () -> Delta_eval.set_cutoff Delta_eval.default_cutoff)
    (fun () ->
      List.iter
        (fun lanes ->
          Pool.with_pool ~lanes (fun pool ->
              List.iter
                (fun (e : Registry.entry) ->
                  let size = min e.default_size 8 in
                  let rng = Random.State.make [| 2033; lanes |] in
                  let reqs = e.workload rng ~size ~length:24 in
                  let seq = ref (Runner.init e.program ~size) in
                  let delta = ref (Runner.init e.program ~size) in
                  let par =
                    ref
                      (Runner.init ~pool ~cutoff:0 e.program ~size)
                  in
                  List.iteri
                    (fun i r ->
                      Delta_eval.set_cutoff
                        (if i mod 6 >= 4 then 0.0
                         else Delta_eval.default_cutoff);
                      seq := Runner.step !seq r;
                      delta := Runner.step ~backend:`Delta !delta r;
                      par := Runner.step ~backend:`Delta !par r;
                      if
                        not
                          (Structure.equal (Runner.structure !seq)
                             (Runner.structure !delta))
                      then
                        Alcotest.failf
                          "%s: delta diverges after request %d (lanes %d)"
                          e.name i lanes;
                      if
                        not
                          (Structure.equal (Runner.structure !seq)
                             (Runner.structure !par))
                      then
                        Alcotest.failf
                          "%s: par-delta diverges after request %d (lanes %d)"
                          e.name i lanes)
                    reqs)
                Registry.all))
        [ 1; 4 ])

(* Frontier state belongs to the runner that built it: a second runner
   of the same program and size compiles its own testers; another
   program's model checks, which restore a runner per checked case,
   leave a live runner warm; and a runner restored from a live one's
   structure starts cold and continues in lockstep with it, work
   included. *)
let test_frontier_state_per_runner () =
  Dynfo_analysis.Advisor.install ();
  let e = Registry.find "reach_u" in
  let size = 7 in
  let rng = Random.State.make [| 41 |] in
  let reqs = e.workload rng ~size ~length:40 in
  let s = Runner.run ~backend:`Delta (Runner.init e.program ~size) reqs in
  let misses0 = Delta_eval.memo_misses () in
  ignore (Runner.run ~backend:`Delta (Runner.init e.program ~size) reqs);
  check tb "a second runner compiles its own testers" true
    (Delta_eval.memo_misses () > misses0);
  ignore (Dynfo_analysis.Defchange.matrix_of (Registry.find "parity").program);
  let misses1 = Delta_eval.memo_misses () in
  (* the same requests again: every plan they reach is resident *)
  let s = Runner.run ~backend:`Delta s reqs in
  check ti "another program's model checks leave the runner warm" 0
    (Delta_eval.memo_misses () - misses1);
  let restored = Runner.restore e.program (Runner.structure s) in
  ignore
    (List.fold_left
       (fun (sa, sb) r ->
         let sa, wa = Runner.step_work ~backend:`Delta sa r in
         let sb, wb = Runner.step_work ~backend:`Delta sb r in
         check tb "restored runner continues in lockstep" true
           (Structure.equal (Runner.structure sa) (Runner.structure sb));
         check ti "restored runner charges the same work" wa wb;
         (sa, sb))
       (s, restored) reqs)

(* Both frontier paths through one workload: msf's rules resolve some
   steps' frontiers under the 32-code threshold (small frontiers) and
   others above it (persistent-mask reuses with dirty-word clears), and
   the warm mask must survive the steps that bypass it. *)
let test_mask_reuse_and_threshold_switch () =
  Dynfo_analysis.Advisor.install ();
  let e = Registry.find "msf" in
  let size = 7 in
  let rng = Random.State.make [| 43 |] in
  let reqs = e.workload rng ~size ~length:60 in
  let reuse0 = Delta_eval.mask_reuse_hits () in
  let cleared0 = Delta_eval.words_cleared () in
  let small0 = Delta_eval.small_frontier_hits () in
  let seq = ref (Runner.init e.program ~size) in
  let delta = ref (Runner.init e.program ~size) in
  List.iteri
    (fun i r ->
      seq := Runner.step !seq r;
      delta := Runner.step ~backend:`Delta !delta r;
      if
        not (Structure.equal (Runner.structure !seq) (Runner.structure !delta))
      then Alcotest.failf "threshold switch: delta diverges after request %d" i)
    reqs;
  check tb "persistent mask was reused" true
    (Delta_eval.mask_reuse_hits () > reuse0);
  check tb "dirty words were cleared" true
    (Delta_eval.words_cleared () > cleared0);
  check tb "small-frontier path fired" true
    (Delta_eval.small_frontier_hits () > small0)

(* --- support analysis sanity ---------------------------------------------- *)

let test_support_reports () =
  (* the hand-derived frames of the two showcase programs; reach_u's
     forest rule chains its delta through the New temporary *)
  let module S = Dynfo_analysis.Support in
  let parity = (Registry.find "parity").program in
  let r = S.report parity in
  check tb "parity eligible" true r.S.sr_eligible;
  check ti "parity rules all framed" 4
    (List.length (List.filter (fun rr -> rr.S.rr_framed) r.S.sr_rules));
  let reach_u = (Registry.find "reach_u").program in
  let r = S.report reach_u in
  check tb "reach_u eligible" true r.S.sr_eligible;
  check tb "reach_u F-del chained via New" true
    (List.exists (fun (_, temp) -> temp = "New") r.S.sr_temp_chains)

(* --- single-tuple fast path + tester memoization --------------------------- *)

(* The mask-free frontier fast path and the per-plan tester memo are
   the serving layer's wall-clock win. Assert both actually fire on
   showcase workloads — and that taking them changes nothing: the delta
   run must still land on the very structure the tuple backend builds. *)
let test_fast_path_and_memo () =
  Dynfo_analysis.Advisor.install ();
  let fast0 = Delta_eval.fast_hits () in
  let hits0 = Delta_eval.memo_hits () in
  let misses0 = Delta_eval.memo_misses () in
  List.iter
    (fun (name, size, length) ->
      let e = Registry.find name in
      let rng = Random.State.make [| 11 |] in
      let reqs = e.workload rng ~size ~length in
      let s_t = Runner.run ~backend:`Tuple (Runner.init e.program ~size) reqs in
      let s_d = Runner.run ~backend:`Delta (Runner.init e.program ~size) reqs in
      check tb (name ^ ": answers agree") (Runner.query s_t) (Runner.query s_d);
      check tb
        (name ^ ": structures agree")
        true
        (Structure.equal (Runner.structure s_t) (Runner.structure s_d)))
    [ ("reach_u", 8, 80); ("parity", 32, 80) ];
  check tb "single-tuple fast path fired" true
    (Delta_eval.fast_hits () > fast0);
  check tb "compiled testers were rebound, not recompiled" true
    (Delta_eval.memo_hits () > hits0);
  (* compiles are per (runner, plan): one delta runner of each of two
     programs can only add a handful, however many steps ran *)
  check tb "bounded compiles" true (Delta_eval.memo_misses () - misses0 <= 32)

(* --- a step's work is its own ---------------------------------------------- *)

let step_ticks ?defchange s reqs =
  List.rev
    (snd
       (List.fold_left
          (fun (s, ws) r ->
            let s, w, _ =
              Runner.step_batch_full ~backend:`Delta ?defchange s [ r ]
            in
            (s, w :: ws))
          (s, []) reqs))

(* [step_batch_full] meters a fresh counter per tick, so evaluation that
   runs during a tick but not for it is not charged to it: here a second
   runner is stepped from inside the tick's defchange callback, which
   then answers like the installed oracle — the shape of a cold oracle
   model-checking inside the first tick that asks it. *)
let test_tick_work_excludes_callbacks () =
  Dynfo_analysis.Advisor.install ();
  let e = Registry.find "reach_u" in
  let size = 8 in
  let reqs = e.workload (Random.State.make [| 5 |]) ~size ~length:40 in
  let solo = step_ticks (Runner.init e.program ~size) reqs in
  let other = ref (Runner.init e.program ~size) in
  let defchange kind rel =
    List.iter (fun r -> other := Runner.step ~backend:`Delta !other r) reqs;
    Runner.defchange_verdict e.program kind rel
  in
  check (Alcotest.list ti) "each tick's work equals its solo work" solo
    (step_ticks ~defchange (Runner.init e.program ~size) reqs)

(* Two domains step runners of their own at once: every step charges
   exactly its solo work, whatever the other domain evaluates. *)
let test_two_domains_work_alone () =
  Dynfo_analysis.Advisor.install ();
  let e = Registry.find "reach_u" in
  let size = 10 in
  let run seed () =
    let reqs = e.workload (Random.State.make [| seed |]) ~size ~length:300 in
    snd (Runner.run_work ~backend:`Delta (Runner.init e.program ~size) reqs)
  in
  let seeds = [ 11; 12 ] in
  let solo = List.map (fun seed -> run seed ()) seeds in
  let together =
    List.map Domain.join (List.map (fun seed -> Domain.spawn (run seed)) seeds)
  in
  List.iter2
    (fun a b -> check (Alcotest.list ti) "per-step work equals solo" a b)
    solo together

(* A tick folds its members one by one, each evaluating its own
   frontier: with the installed Defchange oracle and no commute planning,
   one delta tick of k singleton [ins E] requests charges exactly the
   work of stepping them one at a time, and lands on the same relations.
   The inputs reach the persistent dirty mask (frontiers of more than 32
   codes), where a shared frontier would re-test earlier members' words. *)
let test_tick_work_equals_fold () =
  Dynfo_analysis.Advisor.install ();
  Dynfo_analysis.Defchange.install ();
  Fun.protect ~finally:(fun () ->
      Runner.set_defchange_oracle (fun _ _ _ -> `Fold))
  @@ fun () ->
  List.iter
    (fun (name, size, k) ->
      let e = Registry.find name in
      let arity =
        match Vocab.relations e.program.input_vocab with
        | (s : Vocab.sym) :: _ -> s.arity
        | [] -> assert false
      in
      let rng = Random.State.make [| 30; size; k |] in
      let reqs =
        List.init k (fun _ ->
            Request.ins "E"
              (List.init arity (fun _ -> Random.State.int rng size)))
      in
      let what = Printf.sprintf "%s n=%d k=%d" name size k in
      let mask0 = Delta_eval.mask_builds () + Delta_eval.mask_reuse_hits () in
      let tick, w, _ =
        Runner.step_batch_full ~backend:`Delta ~oracle:Runner.null_oracle
          (Runner.init e.program ~size) reqs
      in
      check tb (what ^ ": reaches the persistent mask") true
        (Delta_eval.mask_builds () + Delta_eval.mask_reuse_hits () > mask0);
      let fold, ws =
        Runner.run_work ~backend:`Delta (Runner.init e.program ~size) reqs
      in
      check ti (what ^ ": tick work = fold work") (List.fold_left ( + ) 0 ws) w;
      check tb (what ^ ": same relations") true
        (Structure.equal (Runner.structure fold) (Runner.structure tick)))
    [ ("semi_reach", 128, 16); ("semi_reach", 128, 64); ("msf", 7, 8) ]

let () =
  Alcotest.run "delta"
    [
      ( "symmetric_diff",
        [
          QCheck_alcotest.to_alcotest symdiff_matches_reference;
          QCheck_alcotest.to_alcotest symdiff_laws;
        ] );
      ( "delta_eval",
        [
          with_frontier_share frontier_sound_share frontier_sound;
          with_frontier_share delta_matches_share delta_matches_eval_and_bulk;
          QCheck_alcotest.to_alcotest delta_cutoff_zero_matches;
          Alcotest.test_case "error parity with Eval" `Quick
            test_delta_error_parity;
          Alcotest.test_case "zero-arity rules" `Quick test_delta_zero_arity;
          Alcotest.test_case "unframed plans fall back" `Quick
            test_unframed_plan_falls_back;
          Alcotest.test_case "fast path and tester memo fire" `Quick
            test_fast_path_and_memo;
        ] );
      ( "registry",
        [
          Alcotest.test_case "all programs in lockstep, sizes 1-12" `Slow
            test_registry_lockstep;
          Alcotest.test_case "delta work < tuple work on showcases" `Slow
            test_registry_work_not_worse;
        ] );
      ( "par_delta",
        [
          Alcotest.test_case "define == tuple at 4 lanes" `Quick
            test_par_delta_define_matches;
          Alcotest.test_case "registry via harness at 1/2/4 lanes" `Slow
            test_registry_par_delta_agreement;
        ] );
      ( "frontier_state",
        [
          test_stateful_frontier_matches_stateless;
          Alcotest.test_case "budget fallback -> resync, registry x lanes"
            `Slow test_registry_cutoff_resync;
          Alcotest.test_case "frontier state is per runner" `Quick
            test_frontier_state_per_runner;
          Alcotest.test_case "mask reuse and threshold switches" `Quick
            test_mask_reuse_and_threshold_switch;
        ] );
      ( "work",
        [
          Alcotest.test_case "a tick's work excludes its callbacks" `Quick
            test_tick_work_excludes_callbacks;
          Alcotest.test_case "two domains: each step's work is its own"
            `Quick test_two_domains_work_alone;
          Alcotest.test_case "a delta tick's work equals the fold's" `Quick
            test_tick_work_equals_fold;
        ] );
      ( "support",
        [ Alcotest.test_case "showcase frames" `Quick test_support_reports ] );
    ]
