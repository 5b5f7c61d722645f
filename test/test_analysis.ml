(* Tests for the static analyzer: the whole registry must come out clean
   (precision), and systematic corruptions of known-good programs must
   each fire exactly the expected diagnostic (soundness). Corrupted
   programs are assembled by record surgery, bypassing [Program.make]'s
   own validation — exactly the hand-assembled programs the analyzer
   exists to catch. *)

open Dynfo_logic
open Dynfo
open Dynfo_programs
module D = Dynfo_analysis.Diagnostic
module Check = Dynfo_analysis.Check
module Metrics = Dynfo_analysis.Metrics
module Report = Dynfo_analysis.Report

let check = Alcotest.check
let tb = Alcotest.bool
let ti = Alcotest.int
let ts = Alcotest.string

let show_diags ds = String.concat "\n" (List.map D.to_string ds)

(* assert a corruption yields exactly one diagnostic, with this severity,
   path and message *)
let expect_one ~what p severity path message =
  let ds = Check.program p in
  check ti (what ^ ": one diagnostic") 1 (List.length ds);
  let d = List.hd ds in
  check tb (what ^ ": severity") true (d.D.severity = severity);
  check ts (what ^ ": path") path d.D.path;
  check ts (what ^ ": message") message d.D.message

(* --- registry sweep: no false positives --------------------------------- *)

let test_registry_clean () =
  List.iter
    (fun (e : Registry.entry) ->
      let ds = Check.program e.program in
      check ti
        (Printf.sprintf "%s clean, got:\n%s" e.name (show_diags ds))
        0 (List.length ds))
    Registry.all

let test_registry_strict_reports () =
  List.iter
    (fun (e : Registry.entry) ->
      let r = Report.of_program e.program in
      check tb (e.name ^ " ok strict") true (Report.ok r ~strict:true);
      check tb (e.name ^ " clean") true (Report.is_clean r))
    Registry.all

(* --- mutation helpers ---------------------------------------------------- *)

let map_update kind i f (p : Program.t) =
  let on l = List.mapi (fun j (key, u) -> if i = j then (key, f u) else (key, u)) l in
  match kind with
  | `Ins -> { p with on_ins = on p.on_ins }
  | `Del -> { p with on_del = on p.on_del }

let map_rule n f (u : Program.update) =
  { u with rules = List.mapi (fun j r -> if j = n then f r else r) u.rules }

let reach_u = (Registry.find "reach_u").program
let parity = (Registry.find "parity").program
let msf = (Registry.find "msf").program

(* --- corruption: wrong arity --------------------------------------------- *)

let test_wrong_arity () =
  (* give reach_u's F-rule a third tuple variable: F is binary *)
  let p =
    map_update `Ins 0
      (map_rule 1 (fun (r : Program.rule) ->
           { r with vars = r.vars @ [ "w" ] }))
      reach_u
  in
  expect_one ~what:"arity" p D.Error "on_ins E / rule F"
    "rule has 3 tuple variables, F has arity 2"

let test_wrong_arity_atom () =
  (* make an atom disagree with the declared arity of PV (ternary) *)
  let p =
    map_update `Ins 0
      (map_rule 0 (fun (r : Program.rule) ->
           { r with body = Formula.And (r.body, Formula.rel_v "PV" [ "x"; "y" ]) }))
      reach_u
  in
  expect_one ~what:"atom arity" p D.Error "on_ins E / rule E"
    "atom PV has 2 arguments, declared arity is 3"

(* --- corruption: unbound free variable ----------------------------------- *)

let test_unbound_variable () =
  let p =
    map_update `Ins 0
      (map_rule 0 (fun (r : Program.rule) ->
           {
             r with
             body =
               Formula.And (r.body, Formula.Eq (Formula.Var "zz", Formula.Min));
           }))
      parity
  in
  expect_one ~what:"unbound" p D.Error "on_ins M / rule M"
    "unbound free variable zz"

(* --- corruption: unknown relation ---------------------------------------- *)

let test_unknown_relation () =
  let p =
    map_update `Del 0
      (map_rule 0 (fun (r : Program.rule) ->
           { r with body = Formula.And (r.body, Formula.rel_v "NOPE" []) }))
      parity
  in
  expect_one ~what:"unknown rel" p D.Error "on_del M / rule M"
    "references unknown relation NOPE"

(* --- corruption: duplicate target in one simultaneous block -------------- *)

let test_duplicate_target () =
  let p =
    map_update `Ins 0
      (fun (u : Program.update) ->
        { u with rules = List.hd u.rules :: u.rules })
      msf
  in
  let target = (List.hd (List.assoc "E" msf.on_ins).rules).target in
  expect_one ~what:"duplicate target" p D.Error "on_ins E"
    (Printf.sprintf "simultaneous block redefines target %s" target)

(* --- corruption: temporary used before its definition --------------------- *)

let test_temp_before_definition () =
  (* reach_u's delete block defines T then New, and New's body reads T;
     swapping them is the classic use-before-definition *)
  let p =
    map_update `Del 0
      (fun (u : Program.update) -> { u with temps = List.rev u.temps })
      reach_u
  in
  expect_one ~what:"temp order" p D.Error "on_del E / temp New"
    "references temporary T before its definition"

(* --- corruption: temporary shadowing a state relation --------------------- *)

let test_temp_shadows_state () =
  let p =
    map_update `Del 0
      (fun (u : Program.update) ->
        {
          u with
          temps =
            u.temps @ [ Program.rule "F" [ "x"; "y" ] Formula.True ];
        })
      reach_u
  in
  (* two findings: the shadow itself, and the F rule now writing a temp *)
  let ds = Check.program p in
  check ti ("temp shadow: two diagnostics, got:\n" ^ show_diags ds) 2
    (List.length ds);
  let d1 = List.nth ds 0 and d2 = List.nth ds 1 in
  check ts "shadow path" "on_del E / temp F" d1.D.path;
  check ts "shadow message" "temporary F shadows a state relation"
    d1.D.message;
  check ts "knock-on path" "on_del E / rule F" d2.D.path;
  check ts "knock-on message"
    "rule targets temporary F (temporaries are discarded after the update)"
    d2.D.message

(* --- corruption: rule targeting a temporary ------------------------------- *)

let test_rule_targets_temp () =
  let p =
    map_update `Del 0
      (map_rule 0 (fun (r : Program.rule) -> { r with target = "T" }))
      reach_u
  in
  let ds = Check.program p in
  check tb
    ("targets temp, got:\n" ^ show_diags ds)
    true
    (List.exists
       (fun d ->
         d.D.path = "on_del E / rule T"
         && d.D.message
            = "rule targets temporary T (temporaries are discarded after \
               the update)")
       ds)

(* --- corruption: query with a free non-constant variable ------------------- *)

let test_query_not_sentence () =
  let p = { reach_u with query = Parser.parse "PV(s, t, q)" } in
  expect_one ~what:"query sentence" p D.Error "query"
    "not a sentence: free variable q"

(* --- hazard warning: rule writing another input relation ------------------- *)

let hazard_program =
  let iv = Vocab.make ~rels:[ ("A", 1); ("B", 1) ] ~consts:[] in
  {
    Program.name = "hazard";
    input_vocab = iv;
    aux_vocab = Vocab.make ~rels:[] ~consts:[];
    init = (fun n -> Structure.create ~size:n iv);
    on_ins =
      [
        ( "A",
          Program.update ~params:[ "a" ]
            [ Program.rule "B" [ "x" ] (Formula.rel_v "A" [ "x" ]) ] );
      ];
    on_del = [];
    on_set = [];
    query = Formula.True;
    queries = [];
  }

let test_cross_input_write_warning () =
  expect_one ~what:"cross-input write" hazard_program D.Warning
    "on_ins A / rule B" "rule redefines input relation B from an on_ins A update";
  let r = Report.of_program hazard_program in
  check tb "ok non-strict" true (Report.ok r ~strict:false);
  check tb "fails strict" false (Report.ok r ~strict:true)

(* --- construction-time and runtime rejection of duplicate targets ---------- *)

let test_make_rejects_duplicate_target () =
  let iv = Vocab.make ~rels:[ ("A", 1) ] ~consts:[] in
  let av = Vocab.make ~rels:[ ("b", 0) ] ~consts:[] in
  Alcotest.check_raises "make rejects"
    (Invalid_argument
       "tiny/ins(A): update block redefines target b twice")
    (fun () ->
      ignore
        (Program.make ~name:"tiny" ~input_vocab:iv ~aux_vocab:av
           ~init:(fun n -> Structure.create ~size:n (Vocab.union iv av))
           ~on_ins:
             [
               ( "A",
                 Program.update ~params:[ "a" ]
                   [
                     Program.rule "b" [] Formula.True;
                     Program.rule "b" [] Formula.False;
                   ] );
             ]
           ~query:(Formula.rel "b" []) ()))

let test_runner_rejects_duplicate_target () =
  let p =
    map_update `Ins 0
      (fun (u : Program.update) ->
        { u with rules = List.hd u.rules :: u.rules })
      parity
  in
  let s = Runner.init p ~size:4 in
  Alcotest.check_raises "step rejects"
    (Invalid_argument "Runner.step: update block redefines target M twice")
    (fun () -> ignore (Runner.step s (Request.ins "M" [ 1 ])))

(* --- metrics -------------------------------------------------------------- *)

let test_metrics_reach_u () =
  let m = Metrics.of_program reach_u in
  check ti "rule count" 8 m.Metrics.rule_count;
  check ti "max tuple exponent" 3 m.Metrics.max_tuple_exponent;
  check ti "max quantifier rank" 2 m.Metrics.max_quantifier_rank;
  check ti "max alternation depth" 1 m.Metrics.max_alternation_depth;
  check ti "max work exponent" 5 m.Metrics.max_work_exponent;
  (* the PV insert rule: 3 tuple vars, rank-2 body -> n^5 of work *)
  let pv =
    List.find
      (fun (r : Metrics.formula_metrics) -> r.path = "on_ins E / rule PV")
      m.Metrics.rules
  in
  check ti "pv tuple exponent" 3 pv.Metrics.tuple_exponent;
  check ti "pv work exponent" 5 pv.Metrics.work_exponent;
  (* the optimizer removes both quantifiers of the insert-PV rule *)
  check ti "pv optimized work exponent" 3 pv.Metrics.opt_work_exponent;
  (* but the delete-PV rule keeps its rank, so the program-level
     optimized maximum stays n^5 *)
  check ti "max optimized work" 5 m.Metrics.max_opt_work_exponent

let test_metrics_every_program_bounded () =
  List.iter
    (fun (e : Registry.entry) ->
      let m = Metrics.of_program e.program in
      check tb (e.name ^ " has rules") true (m.Metrics.rule_count > 0);
      check tb
        (e.name ^ " work exponent sane")
        true
        (m.Metrics.max_work_exponent >= 0
        && m.Metrics.max_work_exponent
           >= m.Metrics.max_tuple_exponent))
    Registry.all

(* --- verified optimizer ---------------------------------------------------- *)

module Rewrite = Dynfo_analysis.Rewrite
module Dataflow = Dynfo_analysis.Dataflow
module Advisor = Dynfo_analysis.Advisor

let test_optimize_registry_verified () =
  List.iter
    (fun (e : Registry.entry) ->
      let rep = Rewrite.optimize_program e.program in
      check ti
        (e.name ^ ": no rejected rewrites")
        0
        (List.length rep.Rewrite.rejections);
      check tb
        (e.name ^ ": work exponent not larger")
        true
        (rep.Rewrite.work_after <= rep.Rewrite.work_before);
      match Rewrite.check_equivalence e.program rep.Rewrite.optimized with
      | Ok n -> check tb (e.name ^ ": checkpoints") true (n > 0)
      | Error m -> Alcotest.failf "%s: optimized program diverges: %s" e.name m)
    Registry.all

let test_optimize_reach_u_one_point () =
  (* the symmetric-edge idiom  ex u v ((u=a & v=b | u=b & v=a) & ...)
     must collapse to a quantifier-free disjunction *)
  let rep = Rewrite.optimize_program reach_u in
  let c =
    List.find
      (fun (c : Rewrite.change) -> c.Rewrite.chg_path = "on_ins E / rule PV")
      rep.Rewrite.changes
  in
  check tb "one-point fired" true
    (List.mem "one-point" c.Rewrite.chg_passes);
  check ti "insert PV now quantifier-free" 0
    (Formula.quantifier_rank c.Rewrite.chg_after);
  check ti "was rank 2" 2 (Formula.quantifier_rank c.Rewrite.chg_before);
  check tb "model checking happened" true (rep.Rewrite.stats.Rewrite.checks > 0);
  check tb "some sizes exhaustive" true
    (rep.Rewrite.stats.Rewrite.exhaustive_upto >= 1)

(* --- mutation tests: hand-broken passes must be rejected ------------------- *)

let vocab_ab = Vocab.make ~rels:[ ("A", 1); ("B", 1) ] ~consts:[]

let test_verifier_rejects_dropped_negation () =
  let broken =
    {
      Rewrite.pass_name = "drop-negation";
      transform =
        Formula.map_bottom_up (function
          | Formula.Not g -> g
          | f -> f);
    }
  in
  let f = Parser.parse "ex x (A(x) & ~B(x))" in
  let out =
    Rewrite.optimize_formula ~passes:[ broken ] ~vocab:vocab_ab ~path:"t" f
  in
  check tb "original kept" true (Formula.equal out.Rewrite.result f);
  check tb "rejection recorded" true (out.Rewrite.rejected <> []);
  let r = List.hd out.Rewrite.rejected in
  check ts "rejected pass" "drop-negation" r.Rewrite.rej_pass

let test_verifier_rejects_widened_scope () =
  (* distributing ex over & widens each conjunct's witness scope *)
  let broken =
    {
      Rewrite.pass_name = "bad-distribute";
      transform =
        Formula.map_bottom_up (function
          | Formula.Exists (vs, Formula.And (a, b)) ->
              Formula.And (Formula.Exists (vs, a), Formula.Exists (vs, b))
          | f -> f);
    }
  in
  let f = Parser.parse "ex x (A(x) & B(x))" in
  let out =
    Rewrite.optimize_formula ~passes:[ broken ] ~vocab:vocab_ab ~path:"t" f
  in
  check tb "original kept" true (Formula.equal out.Rewrite.result f);
  check tb "rejection recorded" true (out.Rewrite.rejected <> [])

let test_verify_equiv_counterexample () =
  let before = Parser.parse "ex x (A(x) & B(x))" in
  let after = Parser.parse "ex x (A(x)) & ex x (B(x))" in
  match Rewrite.verify_equiv ~vocab:vocab_ab before after with
  | Ok _ -> Alcotest.fail "unsound rewrite passed verification"
  | Error cex ->
      check tb "values differ" true
        (cex.Rewrite.before_value <> cex.Rewrite.after_value);
      check tb "witness is small" true (cex.Rewrite.cex_size <= 4)

let test_verify_equiv_sound_rewrite () =
  let before = Parser.parse "~~A(x) | (B(x) & false)" in
  let after = Parser.parse "A(x)" in
  match Rewrite.verify_equiv ~vocab:vocab_ab before after with
  | Ok stats ->
      check tb "exhaustive on small sizes" true
        (stats.Rewrite.exhaustive_upto >= 2)
  | Error cex ->
      Alcotest.failf "sound rewrite rejected: %s"
        (Format.asprintf "%a" Rewrite.pp_counterexample cex)

let test_verify_block_enumerates_constants () =
  (* [x = c] and [x = 0] agree whenever c = 0: a block checker that left
     every constant at its initial 0 would accept this rewrite *)
  let vocab = Vocab.make ~rels:[ ("R", 1); ("T", 1) ] ~consts:[ "c" ] in
  let block body =
    Program.update ~params:[] [ Program.rule_s "T" [ "x" ] body ]
  in
  let ok, _ =
    Rewrite.verify_block ~vocab ~params:[] (block "R(x) & x = c")
      (block "R(x) & x = 0")
  in
  check tb "x = c vs x = 0 refuted" false ok;
  let ok, stats =
    Rewrite.verify_block ~vocab ~params:[] (block "R(x) & x = c")
      (block "x = c & R(x)")
  in
  check tb "a sound reordering accepted" true ok;
  (* 2^bits patterns x |c| values per size: 4·1 + 16·2 + 64·3 *)
  check ti "every constant value enumerated" 228 stats.Rewrite.checks;
  check ti "exhaustive to the cutoff" 3 stats.Rewrite.exhaustive_upto

(* --- the bounded model checker ------------------------------------------- *)

module Mc = Dynfo_analysis.Mc

let test_mc_reachable_shared () =
  let a = Mc.reachable ~max_size:2 parity in
  check tb "repeated lookup is the same value" true
    (a == Mc.reachable ~max_size:2 parity);
  check tb "keyed on max_size too" true
    (a != Mc.reachable ~max_size:3 parity);
  check tb "states span every size" true
    (List.sort_uniq compare (List.map fst a) = [ 1; 2 ])

let test_mc_exhaustive_counts () =
  (* R/1 and B/0 give size+1 bits; one constant; two unary arguments *)
  let vocab = Vocab.make ~rels:[ ("R", 1); ("B", 0) ] ~consts:[ "c" ] in
  let seen = Hashtbl.create 512 in
  let per_size = Array.make 4 0 in
  let check_fn st argss =
    let size = Structure.size st in
    per_size.(size) <- per_size.(size) + 1;
    let r = List.filter (fun i -> Structure.mem st "R" [| i |]) in
    Hashtbl.replace seen
      ( size,
        r (List.init size Fun.id),
        Structure.mem st "B" [||],
        Structure.const st "c",
        argss )
      ();
    true
  in
  let run budget =
    Mc.synthetic ~seed:1 ~draws:2 ~max_size:3 ~budget ~samples:5
      ~arities:[ 1; 1 ] ~check:check_fn vocab
  in
  let r = run 432 in
  List.iter
    (fun size ->
      check ti
        (Printf.sprintf "size %d visits 2^bits x size^|consts| x |args|" size)
        (Mc.pow 2 (size + 1) * size * Mc.pow size 2)
        per_size.(size))
    [ 1; 2; 3 ];
  check ti "each combination exactly once" r.Mc.mc_checks (Hashtbl.length seen);
  check ti "exhaustive to n=3" 3 r.Mc.mc_exhaustive_upto;
  (* one combination short of the budget: size 3 is sampled *)
  Array.fill per_size 0 4 0;
  let r = run 431 in
  check ti "exhaustive to n=2" 2 r.Mc.mc_exhaustive_upto;
  check ti "size 3 sampled: samples x draws" 10 per_size.(3)

(* --- dataflow -------------------------------------------------------------- *)

let test_dataflow_reach_u () =
  let d = Dataflow.of_program reach_u in
  check tb "PV live" true (List.mem "PV" d.Dataflow.live);
  check tb "E live" true (List.mem "E" d.Dataflow.live);
  check tb "edge PV reads F" true (List.mem ("PV", "F") d.Dataflow.edges);
  check ti "no dead relations" 0 (List.length d.Dataflow.dead_rels);
  check ti "no dead rules" 0 (List.length d.Dataflow.dead_rules);
  check ts "query reads PV" "PV" (List.hd d.Dataflow.query_reads);
  (* every block rewrites PV while reading it: hazards in both blocks *)
  List.iter
    (fun block ->
      check tb (block ^ " PV hazard") true
        (List.exists
           (fun (h : Dataflow.hazard) ->
             h.Dataflow.hz_block = block && h.Dataflow.hz_rel = "PV")
           d.Dataflow.hazards))
    [ "on_ins E"; "on_del E" ]

let test_dataflow_temps_expanded () =
  let d = Dataflow.of_program reach_u in
  let n =
    List.find
      (fun (n : Dataflow.rule_node) ->
        n.Dataflow.path = "on_del E / rule PV")
      d.Dataflow.nodes
  in
  (* the delete-PV rule consumes the temporaries New and T; its reads
     must name only pre-state relations *)
  check tb "no temporary names in reads" true
    ((not (List.mem "New" n.Dataflow.reads))
    && not (List.mem "T" n.Dataflow.reads));
  check tb "reads resolve to state relations" true
    (n.Dataflow.reads <> []
    && List.for_all
         (fun r -> List.mem r (d.Dataflow.inputs @ d.Dataflow.auxes))
         n.Dataflow.reads)

let test_dataflow_dead_relation () =
  (* graft an aux relation nothing ever queries onto parity *)
  let p =
    {
      parity with
      aux_vocab =
        Vocab.union parity.Program.aux_vocab
          (Vocab.make ~rels:[ ("JUNK", 1) ] ~consts:[]);
      on_ins =
        List.map
          (fun (k, (u : Program.update)) ->
            ( k,
              {
                u with
                rules =
                  u.rules
                  @ [ Program.rule "JUNK" [ "x" ] (Formula.rel_v "M" [ "x" ]) ];
              } ))
          parity.Program.on_ins;
    }
  in
  let d = Dataflow.of_program p in
  check tb "JUNK dead" true (List.mem "JUNK" d.Dataflow.dead_rels);
  check tb "JUNK rule dead" true
    (List.mem "on_ins M / rule JUNK" d.Dataflow.dead_rules);
  check tb "JUNK not live" true (not (List.mem "JUNK" d.Dataflow.live))

(* --- advisor and the auto backend ------------------------------------------ *)

let test_advisor_choices () =
  let adv name = Advisor.of_program (Registry.find name).program in
  (* delta-eligible programs get `Delta, with the old tuple/bulk
     heuristic preserved as the fallback backend *)
  check tb "reach_u -> delta" true ((adv "reach_u").Advisor.backend = `Delta);
  check tb "reach_u fallback bulk (n^5, BIT-free)" true
    ((adv "reach_u").Advisor.fallback = `Bulk);
  check tb "mult -> delta" true ((adv "mult").Advisor.backend = `Delta);
  check tb "mult fallback tuple (BIT-heavy)" true
    ((adv "mult").Advisor.fallback = `Tuple);
  check tb "parity fallback tuple (n^1)" true
    ((adv "parity").Advisor.fallback = `Tuple);
  (* pad_reach_a's rules carry no frame: the old heuristic survives *)
  check tb "pad_reach_a -> tuple (not delta-eligible)" true
    ((adv "pad_reach_a").Advisor.backend = `Tuple);
  let a = Advisor.of_program (Registry.find "mult").program in
  check tb "mult BIT fraction measured" true
    (a.Advisor.bit_fraction > 0.05)

let test_auto_backend_resolution () =
  Advisor.install ();
  check tb "runner resolves reach_u to delta" true
    (Runner.resolve_backend reach_u `Auto = `Delta);
  check tb "runner resolves parity to delta" true
    (Runner.resolve_backend parity `Auto = `Delta);
  let d = Dyn.of_program ~backend:`Auto reach_u in
  check tb "dyn name records resolution" true
    (String.length d.Dyn.name >= 12
    && String.sub d.Dyn.name (String.length d.Dyn.name - 12) 12
       = "[auto:delta]");
  Dynfo_engine.Pool.with_pool ~lanes:2 (fun pool ->
      let s =
        Dynfo_engine.Par_runner.init pool ~backend:`Auto reach_u ~size:5
      in
      check tb "parallel runner resolves at init" true
        (Dynfo_engine.Par_runner.backend s = `Delta))

let test_auto_matches_tuple () =
  Advisor.install ();
  List.iter
    (fun name ->
      let e = Registry.find name in
      let rng = Random.State.make [| 5 |] in
      let reqs = e.workload rng ~size:6 ~length:80 in
      match
        Harness.compare_all ~size:6
          [
            Dyn.of_program e.program;
            Dyn.of_program ~backend:`Auto e.program;
          ]
          reqs
      with
      | Harness.Ok _ -> ()
      | m ->
          Alcotest.failf "%s: auto diverges from tuple: %s" name
            (Format.asprintf "%a" Harness.pp_outcome m))
    [ "reach_u"; "mult"; "parity" ]

let () =
  Alcotest.run "analysis"
    [
      ( "registry",
        [
          Alcotest.test_case "whole registry clean" `Quick test_registry_clean;
          Alcotest.test_case "strict reports ok" `Quick
            test_registry_strict_reports;
        ] );
      ( "mutations",
        [
          Alcotest.test_case "wrong rule arity" `Quick test_wrong_arity;
          Alcotest.test_case "wrong atom arity" `Quick test_wrong_arity_atom;
          Alcotest.test_case "unbound variable" `Quick test_unbound_variable;
          Alcotest.test_case "unknown relation" `Quick test_unknown_relation;
          Alcotest.test_case "duplicate target" `Quick test_duplicate_target;
          Alcotest.test_case "temp before definition" `Quick
            test_temp_before_definition;
          Alcotest.test_case "temp shadows state" `Quick
            test_temp_shadows_state;
          Alcotest.test_case "rule targets temp" `Quick test_rule_targets_temp;
          Alcotest.test_case "query not a sentence" `Quick
            test_query_not_sentence;
          Alcotest.test_case "cross-input write warning" `Quick
            test_cross_input_write_warning;
        ] );
      ( "enforcement",
        [
          Alcotest.test_case "Program.make rejects duplicate targets" `Quick
            test_make_rejects_duplicate_target;
          Alcotest.test_case "Runner.step rejects duplicate targets" `Quick
            test_runner_rejects_duplicate_target;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "reach_u numbers" `Quick test_metrics_reach_u;
          Alcotest.test_case "all programs bounded" `Quick
            test_metrics_every_program_bounded;
        ] );
      ( "rewrite",
        [
          Alcotest.test_case "whole registry optimizes, verified" `Slow
            test_optimize_registry_verified;
          Alcotest.test_case "reach_u one-point collapse" `Quick
            test_optimize_reach_u_one_point;
        ] );
      ( "rewrite-mutations",
        [
          Alcotest.test_case "dropped negation rejected" `Quick
            test_verifier_rejects_dropped_negation;
          Alcotest.test_case "widened quantifier scope rejected" `Quick
            test_verifier_rejects_widened_scope;
          Alcotest.test_case "counterexample reported" `Quick
            test_verify_equiv_counterexample;
          Alcotest.test_case "sound rewrite accepted" `Quick
            test_verify_equiv_sound_rewrite;
          Alcotest.test_case "block check enumerates constants" `Quick
            test_verify_block_enumerates_constants;
        ] );
      ( "mc",
        [
          Alcotest.test_case "reachable states shared" `Quick
            test_mc_reachable_shared;
          Alcotest.test_case "exhaustive combination counts" `Quick
            test_mc_exhaustive_counts;
        ] );
      ( "dataflow",
        [
          Alcotest.test_case "reach_u graph" `Quick test_dataflow_reach_u;
          Alcotest.test_case "temporaries expanded" `Quick
            test_dataflow_temps_expanded;
          Alcotest.test_case "dead relation detected" `Quick
            test_dataflow_dead_relation;
        ] );
      ( "advisor",
        [
          Alcotest.test_case "backend choices" `Quick test_advisor_choices;
          Alcotest.test_case "auto resolution" `Quick
            test_auto_backend_resolution;
          Alcotest.test_case "auto matches tuple" `Quick
            test_auto_matches_tuple;
        ] );
    ]
