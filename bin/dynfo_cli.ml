(* Command-line driver for the Dyn-FO programs.

   dynfo_cli list
   dynfo_cli stats reach_u
   dynfo_cli run reach_u -n 8 --script requests.txt
   dynfo_cli check reach_u -n 8 --length 200 --seed 7 *)

open Cmdliner
open Dynfo
open Dynfo_programs

let entry_conv =
  let parse s =
    match Registry.find s with
    | e -> Ok e
    | exception Not_found ->
        Error
          (`Msg
             (Printf.sprintf "unknown problem %S; try `dynfo_cli list'" s))
  in
  let print ppf (e : Registry.entry) = Format.pp_print_string ppf e.name in
  Arg.conv (parse, print)

let print_json v = Format.printf "%s@." (Json.to_string v)

(* The analyzer matrices as text or one JSON array; under [strict], every
   program failing [bad] is named on stderr and the command exits 1. *)
let print_matrices ~json ~strict ~to_json ~pp ~program ~bad ~complaint
    matrices =
  if json then print_json (Json.List (List.map to_json matrices))
  else List.iter (fun m -> Format.printf "%a@." pp m) matrices;
  let failing = if strict then List.filter bad matrices else [] in
  List.iter (fun m -> Format.eprintf "%s: %s@." (program m) complaint) failing;
  if failing <> [] then exit 1;
  `Ok ()

let problem_arg =
  Arg.(
    required
    & pos 0 (some entry_conv) None
    & info [] ~docv:"PROBLEM" ~doc:"Problem name (see $(b,list)).")

let size_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "n"; "size" ] ~docv:"N"
        ~doc:"Universe size (default: the problem's preferred size).")

let domains_conv =
  let parse s =
    match int_of_string_opt s with
    | Some d when d >= 0 -> Ok d
    | _ ->
        Error
          (`Msg
             (Printf.sprintf
                "invalid value %S, expected 0 (one domain per core) or a \
                 positive domain count"
                s))
  in
  Arg.conv (parse, Format.pp_print_int)

let domains_arg =
  Arg.(
    value
    & opt domains_conv 1
    & info [ "d"; "domains" ] ~docv:"D"
        ~doc:
          "Evaluate update formulas on $(docv) OCaml domains (the \
           multicore CRAM engine). 1 = the sequential runner; 0 = one \
           per core.")

let cutoff_arg =
  Arg.(
    value
    & opt int Dynfo_engine.Pool.default_cutoff
    & info [ "cutoff" ] ~docv:"C"
        ~doc:
          "Tuple-space size below which a rule is evaluated sequentially \
           even when --domains > 1.")

(* A converter over one of the wire's name tables: the command line
   accepts exactly the names the protocol does. *)
let wire_conv what table =
  let expected =
    match List.rev_map fst table with
    | last :: (_ :: _ as rest) ->
        String.concat ", " (List.rev rest) ^ " or " ^ last
    | names -> String.concat "" names
  in
  let parse s =
    match List.assoc_opt s table with
    | Some v -> Ok v
    | None ->
        Error
          (`Msg (Printf.sprintf "invalid %s %S, expected %s" what s expected))
  in
  let print ppf v =
    Format.pp_print_string ppf (fst (List.find (fun (_, v') -> v' = v) table))
  in
  Arg.conv (parse, print)

let backend_conv = wire_conv "backend" Dynfo_server.Wire.backends

let backend_arg =
  Arg.(
    value
    & opt backend_conv (`Tuple : Runner.backend)
    & info [ "backend" ] ~docv:"B"
        ~doc:
          "Evaluation backend: $(b,tuple) enumerates candidate tuples one \
           at a time; $(b,bulk) materialises each subformula as a dense \
           bitset and evaluates set-at-a-time with word kernels; \
           $(b,delta) re-evaluates only the dirty frontier derived by \
           the static support analysis, falling back to a full recompute \
           past $(b,--delta-cutoff); $(b,auto) lets the static \
           analyzer's advisor pick per program.")

let delta_cutoff_arg =
  Arg.(
    value
    & opt float Dynfo_logic.Delta_eval.default_cutoff
    & info [ "delta-cutoff" ] ~docv:"F"
        ~doc:
          "Delta backend budget: when a rule's dirty frontier exceeds \
           $(docv) * size^arity of its tuple space, recompute the rule \
           in full on the fallback backend instead.")

let bitrel_arg =
  let repr_conv =
    Arg.enum
      [ ("auto", `Auto); ("dense", `Dense); ("paged", `Paged) ]
  in
  Arg.(
    value
    & opt repr_conv `Auto
    & info [ "bitrel" ] ~docv:"R"
        ~doc:
          "Bitset representation for newly allocated relations: \
           $(b,dense) is one flat word array over the whole tuple \
           space, $(b,paged) allocates fixed 4096-code pages on first \
           touch (untouched pages are implicitly zero), $(b,auto) \
           (default) picks dense until the slab would pass \
           ~16 MB.")

let lanes_of_domains = function
  | 0 -> None (* Pool.create picks recommended_domain_count *)
  | d when d >= 1 -> Some d
  | d -> invalid_arg (Printf.sprintf "--domains %d: want 0 or >= 1" d)

(* --- list ---------------------------------------------------------------- *)

let list_cmd =
  let run () =
    Printf.printf "%-16s %-22s %s\n" "NAME" "PAPER" "IMPLEMENTATIONS";
    List.iter
      (fun (e : Registry.entry) ->
        let impls =
          [ Some "fo"; Option.map (fun _ -> "native") e.native;
            Option.map (fun _ -> "static") e.static ]
          |> List.filter_map Fun.id |> String.concat ", "
        in
        Printf.printf "%-16s %-22s %s\n" e.name e.paper_ref impls)
      Registry.all
  in
  Cmd.v (Cmd.info "list" ~doc:"List the available dynamic problems.")
    Term.(const run $ const ())

(* --- stats --------------------------------------------------------------- *)

let stats_cmd =
  let run (e : Registry.entry) =
    Printf.printf "%s (%s)\n" e.name e.paper_ref;
    List.iter
      (fun (k, v) -> Printf.printf "  %-22s %d\n" k v)
      (Program.stats e.program);
    Printf.printf "  %-22s %s\n" "query"
      (Dynfo_logic.Formula.to_string e.program.query)
  in
  Cmd.v
    (Cmd.info "stats" ~doc:"Show the FO program's formula statistics.")
    Term.(const run $ problem_arg)

(* --- analyze ------------------------------------------------------------- *)

let analyze_cmd =
  let all_arg =
    Arg.(
      value & flag
      & info [ "all" ] ~doc:"Analyze every program in the registry.")
  in
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ] ~doc:"Emit a JSON array of per-program reports.")
  in
  let strict_arg =
    Arg.(
      value & flag
      & info [ "strict" ]
          ~doc:"Fail (exit 1) on warnings too, not just errors.")
  in
  let graph_arg =
    Arg.(
      value & flag
      & info [ "graph" ]
          ~doc:
            "Emit the relation-dependency graph(s) in GraphViz DOT format \
             instead of the report.")
  in
  let advise_arg =
    Arg.(
      value & flag
      & info [ "advise" ]
          ~doc:
            "Print only the backend advice (one line per program; a JSON \
             array with $(b,--json)).")
  in
  let size_arg =
    Arg.(
      value & opt (some int) None
      & info [ "size" ] ~docv:"N"
          ~doc:
            "Arm the size-aware advice: the wall-clock delta cutoff and \
             the dense-vs-paged representation plan per relation at \
             universe size $(docv) (with $(b,--advise)).")
  in
  let support_arg =
    Arg.(
      value & flag
      & info [ "support" ]
          ~doc:
            "Print the delta backend's static support analysis: per-rule \
             frame decompositions, frontier bounds and temp chains.")
  in
  let commute_arg =
    Arg.(
      value & flag
      & info [ "commute" ]
          ~doc:
            "Print the update-commutativity matrix: per-op-pair \
             Commute/Conflict/Unknown verdicts (model-checked), the \
             verified idempotence and redundant-no-op laws, and exact \
             write sets. With $(b,--strict), fail if any Commute verdict \
             or believed law lacks model-checker confirmation.")
  in
  let defchange_arg =
    Arg.(
      value & flag
      & info [ "defchange" ]
          ~doc:
            "Print the definable-change analysis: per-op \
             Absorb/Fold/Unknown batch verdicts (model-checked against \
             the singleton-sequence fold, including the FO-definable \
             set-change forms). With $(b,--strict), fail on any Unknown \
             verdict — unverified means unsafe.")
  in
  let mc_size_arg =
    Arg.(
      value & opt int 4
      & info [ "mc-size" ] ~docv:"N"
          ~doc:
            "Maximum universe size the $(b,--defchange) model checker \
             explores (0 checks nothing: every verdict degrades to \
             Unknown).")
  in
  let prog_arg =
    Arg.(
      value
      & pos 0 (some entry_conv) None
      & info [] ~docv:"PROBLEM"
          ~doc:"Problem to analyze (or $(b,--all) for the whole registry).")
  in
  let run all json strict graph advise size support commute defchange
      mc_size entry_opt =
    let entries =
      match (entry_opt, all) with
      | Some e, _ -> Some [ e ]
      | None, true -> Some Registry.all
      | None, false -> None
    in
    match entries with
    | None -> `Error (true, "name a PROBLEM or pass --all")
    | Some entries when commute ->
        let module C = Dynfo_analysis.Commute in
        let law_bad (l : Dynfo_analysis.Mc.law) =
          l.law_holds && l.law_checks = 0
        in
        let unconfirmed (m : C.matrix) =
          List.exists
            (fun (c : C.cell) ->
              c.c_verdict = C.Commute && (c.c_checks = 0 || c.c_domain = None))
            m.m_cells
          || List.exists
               (fun (r : C.op_report) ->
                 law_bad r.or_idempotent || law_bad r.or_nop)
               m.m_ops
        in
        print_matrices ~json ~strict ~to_json:C.to_json ~pp:C.pp
          ~program:(fun (m : C.matrix) -> m.m_program)
          ~bad:unconfirmed
          ~complaint:"Commute verdict or law without model-checker confirmation"
          (List.map (fun (e : Registry.entry) -> C.matrix_of e.program) entries)
    | Some entries when defchange ->
        let module D = Dynfo_analysis.Defchange in
        print_matrices ~json ~strict ~to_json:D.to_json ~pp:D.pp
          ~program:(fun (m : D.matrix) -> m.m_program)
          ~bad:(fun m ->
            List.exists (fun (c : D.cell) -> c.d_verdict = D.Unknown) m.m_cells)
          ~complaint:"unverified (Unknown) batch verdict — treated as unsafe"
          (List.map
             (fun (e : Registry.entry) ->
               if mc_size = 4 then D.matrix_of e.program
               else D.analyze ~max_size:mc_size e.program)
             entries)
    | Some entries when support ->
        List.iter
          (fun (e : Registry.entry) ->
            Format.printf "%a@." Dynfo_analysis.Support.pp
              (Dynfo_analysis.Support.report e.program))
          entries;
        `Ok ()
    | Some entries when graph ->
        List.iter
          (fun (e : Registry.entry) ->
            Format.printf "%a" Dynfo_analysis.Dataflow.pp_dot
              (Dynfo_analysis.Dataflow.of_program e.program))
          entries;
        `Ok ()
    | Some entries when advise ->
        let module A = Dynfo_analysis.Advisor in
        let advices =
          List.map
            (fun (e : Registry.entry) ->
              (e, A.of_program ?size e.program))
            entries
        in
        (if json then
           print_json
             (Json.List
                (List.map
                   (fun ((e : Registry.entry), a) ->
                     let plan n = (n, A.repr_plan e.program ~size:n) in
                     A.to_json ?repr_plan:(Option.map plan size) a)
                   advices))
         else
           List.iter
             (fun ((e : Registry.entry), a) ->
               Format.printf "%a@." A.pp a;
               match size with
               | None -> ()
               | Some n ->
                   A.pp_repr_plan ~size:n Format.std_formatter
                     (A.repr_plan e.program ~size:n))
             advices);
        `Ok ()
    | Some entries ->
        let reports =
          List.map
            (fun (e : Registry.entry) ->
              Dynfo_analysis.Report.of_program e.program)
            entries
        in
        (if json then
           print_json
             (Json.List (List.map Dynfo_analysis.Report.to_json reports))
         else
           match reports with
           | [ r ] when not all -> Format.printf "%a" Dynfo_analysis.Report.pp r
           | _ ->
               List.iter
                 (fun r ->
                   Format.printf "%a@." Dynfo_analysis.Report.pp_summary r;
                   List.iter
                     (fun d ->
                       Format.printf "  %a@." Dynfo_analysis.Diagnostic.pp d)
                     r.Dynfo_analysis.Report.diagnostics)
                 reports);
        let bad =
          List.filter
            (fun r -> not (Dynfo_analysis.Report.ok r ~strict))
            reports
        in
        if bad <> [] then exit 1;
        `Ok ()
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:
         "Statically check a program (vocabulary typing, scope discipline, \
          update-block hazards) and report its CRAM[1] work metrics, \
          dataflow, delta supports and backend advice.")
    Term.(
      ret
        (const run $ all_arg $ json_arg $ strict_arg $ graph_arg
       $ advise_arg $ size_arg $ support_arg $ commute_arg $ defchange_arg
       $ mc_size_arg $ prog_arg))

(* --- run ----------------------------------------------------------------- *)

let script_arg =
  Arg.(
    value
    & opt (some file) None
    & info [ "script" ] ~docv:"FILE"
        ~doc:
          "Request script, one request per line (e.g. 'ins E (0,1)'); \
           reads stdin when omitted.")

let read_lines = function
  | Some file ->
      let ic = open_in file in
      let rec go acc =
        match input_line ic with
        | line -> go (line :: acc)
        | exception End_of_file ->
            close_in ic;
            List.rev acc
      in
      go []
  | None ->
      let rec go acc =
        match input_line stdin with
        | line -> go (line :: acc)
        | exception End_of_file -> List.rev acc
      in
      go []

(* run the continuation over [None] (sequential runner) or [Some pool] *)
let with_engine domains k =
  match lanes_of_domains domains with
  | Some 1 -> k None
  | lanes ->
      Dynfo_engine.Pool.with_pool ?lanes (fun pool -> k (Some pool))

let run_cmd =
  let run (e : Registry.entry) size_opt script domains cutoff backend
      delta_cutoff =
    Dynfo_logic.Delta_eval.set_cutoff delta_cutoff;
    let size = Option.value ~default:e.default_size size_opt in
    let lines =
      read_lines script
      |> List.filter (fun l ->
             let l = String.trim l in
             l <> "" && l.[0] <> '#')
    in
    with_engine domains (fun pool ->
        let d = Dyn.of_program ?pool ~cutoff ~backend e.program in
        let inst = d.create size () in
        List.iter
          (fun line ->
            match
              let req = Request.parse line in
              inst.apply req
            with
            | () -> Printf.printf "%-20s query = %b\n" line (inst.query ())
            | exception (Failure m | Invalid_argument m) ->
                Printf.printf "%-20s error: %s\n" line m)
          lines)
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:"Run a request script through a problem's FO program.")
    Term.(
      const run $ problem_arg $ size_arg $ script_arg $ domains_arg
      $ cutoff_arg $ backend_arg $ delta_cutoff_arg)

(* --- check --------------------------------------------------------------- *)

let check_cmd =
  let length_arg =
    Arg.(value & opt int 200 & info [ "length" ] ~docv:"L"
           ~doc:"Number of random requests.")
  in
  let seed_arg =
    Arg.(value & opt int 1 & info [ "seed" ] ~docv:"S" ~doc:"Random seed.")
  in
  let all_arg =
    Arg.(
      value & flag
      & info [ "all" ] ~doc:"Check every program in the registry.")
  in
  let prog_arg =
    Arg.(
      value
      & pos 0 (some entry_conv) None
      & info [] ~docv:"PROBLEM"
          ~doc:"Problem to check (or $(b,--all) for the whole registry).")
  in
  let check_entry pool (e : Registry.entry) ~size_opt ~length ~seed ~cutoff
      ~backend =
    let size = Option.value ~default:e.default_size size_opt in
    let rng = Random.State.make [| seed |] in
    let reqs = e.workload rng ~size ~length in
    let impls =
      Registry.impls e
      @ (match backend with
        | `Tuple -> []
        | (`Bulk | `Delta | `Auto) as b ->
            [ Dyn.of_program ~backend:b e.program ])
      @
      match pool with
      | None -> []
      | Some pool -> [ Dyn.of_program ~pool ~cutoff ~backend e.program ]
    in
    Printf.printf "checking %s at n=%d over %d requests (seed %d): %!" e.name
      size (List.length reqs) seed;
    match Harness.compare_all ~size impls reqs with
    | Harness.Ok n ->
        Printf.printf "ok (%d checkpoints, %d implementations)\n" n
          (List.length impls);
        let open Dynfo_logic in
        let fh0 = Delta_eval.fast_hits ()
        and mh0 = Delta_eval.memo_hits ()
        and mm0 = Delta_eval.memo_misses ()
        and mb0 = Delta_eval.mask_builds ()
        and mr0 = Delta_eval.mask_reuse_hits ()
        and wc0 = Delta_eval.words_cleared ()
        and sf0 = Delta_eval.small_frontier_hits () in
        let pa0 = Bitrel.pages_allocated ()
        and sk0 = Bitrel.skip_hits () in
        let _, works =
          Runner.run_work ~backend (Runner.init e.program ~size) reqs
        in
        let total = List.fold_left ( + ) 0 works in
        let steps = max 1 (List.length works) in
        let mx = List.fold_left max 0 works in
        Printf.printf "  %s work/step: total %d, mean %.1f, max %d\n"
          (Dynfo_analysis.Advisor.backend_string
             (Runner.resolve_backend e.program backend))
          total
          (float total /. float steps)
          mx;
        (match Runner.resolve_backend e.program backend with
        | `Delta ->
            Printf.printf
              "  delta counters: fast hits %d, memo hits %d, memo misses \
               %d, mask builds %d\n"
              (Delta_eval.fast_hits () - fh0)
              (Delta_eval.memo_hits () - mh0)
              (Delta_eval.memo_misses () - mm0)
              (Delta_eval.mask_builds () - mb0);
            Printf.printf
              "  frontier state: small frontiers %d, mask reuses %d, words \
               cleared %d\n"
              (Delta_eval.small_frontier_hits () - sf0)
              (Delta_eval.mask_reuse_hits () - mr0)
              (Delta_eval.words_cleared () - wc0)
        | `Tuple | `Bulk -> ());
        Printf.printf
          "  page counters: pages allocated %d, skip hits %d\n"
          (Bitrel.pages_allocated () - pa0)
          (Bitrel.skip_hits () - sk0);
        let groups = Runner.plan_groups e.program reqs in
        Printf.printf
          "  commute plan: %d group(s) over %d requests (max run %d)\n"
          (List.length groups) (List.length reqs)
          (List.fold_left (fun m g -> max m (List.length g)) 0 groups);
        true
    | m ->
        Format.printf "%a@." Harness.pp_outcome m;
        false
  in
  let run all entry_opt size_opt length seed domains cutoff backend
      delta_cutoff bitrel =
    Dynfo_logic.Delta_eval.set_cutoff delta_cutoff;
    Dynfo_logic.Bitrel.set_default_repr bitrel;
    let entries =
      match (entry_opt, all) with
      | Some e, _ -> Some [ e ]
      | None, true -> Some Registry.all
      | None, false -> None
    in
    match entries with
    | None -> `Error (true, "name a PROBLEM or pass --all")
    | Some entries ->
        with_engine domains (fun pool ->
            let ok =
              List.fold_left
                (fun acc e ->
                  check_entry pool e ~size_opt ~length ~seed ~cutoff
                    ~backend
                  && acc)
                true entries
            in
            if not ok then exit 1);
        `Ok ()
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Cross-check all implementations of a problem on a random \
          workload. With $(b,--backend bulk) (resp. $(b,delta)) the \
          set-at-a-time (resp. incremental) evaluator joins the \
          comparison alongside the tuple-at-a-time runner and the static \
          oracles. Also reports the per-step work the chosen backend \
          performed across the workload.")
    Term.(
      ret
        (const run $ all_arg $ prog_arg $ size_arg $ length_arg $ seed_arg
       $ domains_arg $ cutoff_arg $ backend_arg $ delta_cutoff_arg
       $ bitrel_arg))

(* --- optimize ------------------------------------------------------------ *)

let optimize_cmd =
  let all_arg =
    Arg.(
      value & flag
      & info [ "all" ] ~doc:"Optimize every program in the registry.")
  in
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ] ~doc:"Emit a JSON array of per-program results.")
  in
  let verify_arg =
    Arg.(
      value & flag
      & info [ "verify" ]
          ~doc:
            "Additionally run the optimized program end-to-end on a \
             random workload against the original and the registry \
             oracles.")
  in
  let show_arg =
    Arg.(
      value & flag
      & info [ "show" ]
          ~doc:"Print each rewritten formula (before and after).")
  in
  let prog_arg =
    Arg.(
      value
      & pos 0 (some entry_conv) None
      & info [] ~docv:"PROBLEM"
          ~doc:
            "Problem to optimize (or $(b,--all) for the whole registry).")
  in
  let length_arg =
    Arg.(
      value & opt int 200
      & info [ "length" ] ~docv:"L"
          ~doc:"Number of random requests per $(b,--verify) workload.")
  in
  let seed_arg =
    Arg.(
      value & opt int 1
      & info [ "seed" ] ~docv:"S" ~doc:"Random seed for $(b,--verify).")
  in
  (* [~text:false] (under --json) keeps stdout pure JSON: the per-program
     report is skipped, and a --verify mismatch goes to stderr *)
  let optimize_entry ~text ~verify ~show ~length ~seed (e : Registry.entry) =
    let rep = Dynfo_analysis.Rewrite.optimize_program e.program in
    let module R = Dynfo_analysis.Rewrite in
    let pr fmt =
      if text then Printf.printf fmt else Printf.ifprintf stdout fmt
    in
    pr
      "%-16s work n^%d -> n^%d, size %d -> %d, %d rewrite(s), %d \
       temp(s), %d rejection(s)\n"
      e.name rep.R.work_before rep.R.work_after rep.R.size_before
      rep.R.size_after
      (List.length rep.R.changes)
      (List.length
         (List.concat_map (fun (_, ts) -> ts) rep.R.cse_temps))
      (List.length rep.R.rejections);
    List.iter
      (fun (c : R.change) ->
        pr "  %-28s %s\n" c.R.chg_path
          (String.concat ", " c.R.chg_passes);
        if show then (
          pr "    before: %s\n"
            (Dynfo_logic.Formula.to_string c.R.chg_before);
          pr "    after:  %s\n"
            (Dynfo_logic.Formula.to_string c.R.chg_after)))
      rep.R.changes;
    List.iter
      (fun (block, names) ->
        pr "  %-28s cse: %s\n" block (String.concat ", " names))
      rep.R.cse_temps;
    List.iter
      (fun (r : R.rejection) ->
        pr "  REJECTED %s [%s]: %s\n" r.R.rej_path r.R.rej_pass
          r.R.rej_reason)
      rep.R.rejections;
    let verified =
      if not verify then true
      else begin
        let size = e.default_size in
        let rng = Random.State.make [| seed |] in
        let reqs = e.workload rng ~size ~length in
        let opt_dyn =
          { (Dyn.of_program rep.R.optimized) with name = e.name ^ "+opt" }
        in
        let impls = Registry.impls e @ [ opt_dyn ] in
        pr "  verify at n=%d over %d requests (seed %d): %!"
          size (List.length reqs) seed;
        match Harness.compare_all ~size impls reqs with
        | Harness.Ok n ->
            pr "ok (%d checkpoints, %d implementations)\n" n
              (List.length impls);
            true
        | m ->
            (if text then Format.printf else Format.eprintf)
              "%a@." Harness.pp_outcome m;
            false
      end
    in
    (rep, verified)
  in
  let run all json verify show length seed entry_opt =
    let entries =
      match (entry_opt, all) with
      | Some e, _ -> Some [ e ]
      | None, true -> Some Registry.all
      | None, false -> None
    in
    match entries with
    | None -> `Error (true, "name a PROBLEM or pass --all")
    | Some entries ->
        let module R = Dynfo_analysis.Rewrite in
        let results =
          List.map
            (fun e ->
              ( e,
                optimize_entry ~text:(not json) ~verify ~show ~length ~seed e
              ))
            entries
        in
        if json then
          print_json
            (Json.List
               (List.map
                  (fun ((e : Registry.entry), (rep, verified)) ->
                    Json.Obj
                      [
                        ("version", Json.Int Dynfo_analysis.Report.version);
                        ("program", Json.Str e.name);
                        ("work_before", Json.Int rep.R.work_before);
                        ("work_after", Json.Int rep.R.work_after);
                        ("size_before", Json.Int rep.R.size_before);
                        ("size_after", Json.Int rep.R.size_after);
                        ("rewrites", Json.Int (List.length rep.R.changes));
                        ( "cse_temps",
                          Json.Int
                            (List.length (List.concat_map snd rep.R.cse_temps))
                        );
                        ("rejections", Json.Int (List.length rep.R.rejections));
                        ("checks", Json.Int rep.R.stats.R.checks);
                        ( "exhaustive_upto",
                          Json.Int rep.R.stats.R.exhaustive_upto );
                        ("verified", Json.Bool verified);
                      ])
                  results));
        let bad =
          List.filter
            (fun (_, ((rep : R.program_report), verified)) ->
              rep.R.rejections <> [] || not verified)
            results
        in
        if bad <> [] then exit 1;
        `Ok ()
  in
  Cmd.v
    (Cmd.info "optimize"
       ~doc:
         "Rewrite a program's update formulas through the verified \
          optimizer (every pass model-checked equivalent on all small \
          structures) and report the work/size deltas. Exits nonzero if \
          any rewrite was rejected or $(b,--verify) finds a mismatch.")
    Term.(
      ret
        (const run $ all_arg $ json_arg $ verify_arg $ show_arg
       $ length_arg $ seed_arg $ prog_arg))

(* --- serve / client / loadgen --------------------------------------------- *)

let socket_arg =
  Arg.(
    value
    & opt string "/tmp/dynfo.sock"
    & info [ "socket" ] ~docv:"PATH"
        ~doc:"Unix-domain socket path for the serving protocol.")

let tcp_conv =
  let parse s =
    match String.rindex_opt s ':' with
    | Some i -> (
        let host = String.sub s 0 i in
        let host = if host = "" then "127.0.0.1" else host in
        match int_of_string_opt (String.sub s (i + 1) (String.length s - i - 1)) with
        | Some port when port >= 0 -> Ok (host, port)
        | _ -> Error (`Msg (Printf.sprintf "invalid port in %S" s)))
    | None -> Error (`Msg (Printf.sprintf "expected HOST:PORT, got %S" s))
  in
  let print ppf (h, p) = Format.fprintf ppf "%s:%d" h p in
  Arg.conv (parse, print)

let tcp_arg =
  Arg.(
    value
    & opt (some tcp_conv) None
    & info [ "tcp" ] ~docv:"HOST:PORT"
        ~doc:
          "Listen on (resp. connect to) TCP instead of the Unix socket; \
           port 0 lets the kernel pick.")

let addr_of socket tcp =
  match tcp with Some (h, p) -> `Tcp (h, p) | None -> `Unix socket

let find_program name =
  match Registry.find name with
  | e -> Some e.Registry.program
  | exception Not_found -> None

let serve_cmd =
  let run socket tcp domains delta_cutoff bitrel =
    Dynfo_logic.Delta_eval.set_cutoff delta_cutoff;
    Dynfo_logic.Bitrel.set_default_repr bitrel;
    let addr = addr_of socket tcp in
    let server =
      Dynfo_server.Server.start
        { addr; lanes = lanes_of_domains domains; find_program }
    in
    (match addr with
    | `Unix path -> Printf.printf "dynfo serve: listening on %s\n%!" path
    | `Tcp (host, _) ->
        Printf.printf "dynfo serve: listening on %s:%d\n%!" host
          (Option.value ~default:0 (Dynfo_server.Server.port server)));
    Dynfo_server.Server.serve server
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the serving daemon: many live sessions (one runner each), \
          newline-delimited JSON commands over a Unix or TCP socket, \
          update batches coalesced into single evaluation ticks, \
          snapshot/restore to disk. Stop it with the $(b,shutdown) \
          command (e.g. via $(b,dynfo_cli client)).")
    Term.(
      const run $ socket_arg $ tcp_arg $ domains_arg $ delta_cutoff_arg
      $ bitrel_arg)

let client_cmd =
  let run socket tcp script =
    let client = Dynfo_server.Client.connect (addr_of socket tcp) in
    let lines =
      read_lines script
      |> List.filter (fun l ->
             let l = String.trim l in
             l <> "" && l.[0] <> '#')
    in
    List.iter
      (fun line -> print_endline (Dynfo_server.Client.raw_call client line))
      lines;
    Dynfo_server.Client.close client
  in
  Cmd.v
    (Cmd.info "client"
       ~doc:
         "Drive a running daemon with raw protocol lines (one JSON \
          command per line, from $(b,--script) or stdin), printing each \
          response line — the scripting face of the wire protocol.")
    Term.(const run $ socket_arg $ tcp_arg $ script_arg)

let engine_conv = wire_conv "engine" Dynfo_server.Wire.engines
let coalesce_conv = wire_conv "mode" Dynfo_server.Wire.coalesces

let loadgen_cmd =
  let batch_arg =
    Arg.(
      value & opt int 16
      & info [ "batch" ] ~docv:"B"
          ~doc:"Requests per update call — the server-side tick size.")
  in
  let length_arg =
    Arg.(
      value & opt int 512
      & info [ "length" ] ~docv:"L" ~doc:"Number of random requests.")
  in
  let seed_arg =
    Arg.(value & opt int 1 & info [ "seed" ] ~docv:"S" ~doc:"Random seed.")
  in
  let engine_arg =
    Arg.(
      value
      & opt engine_conv `Seq
      & info [ "engine" ] ~docv:"E"
          ~doc:"Session engine: $(b,seq) or $(b,par) (the domain pool).")
  in
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ] ~doc:"Emit the result as one JSON object.")
  in
  let verify_arg =
    Arg.(
      value & flag
      & info [ "verify" ]
          ~doc:
            "Replay the same workload offline on the sequential tuple \
             runner and fail (exit 1) unless the final query answers \
             match.")
  in
  let coalesce_arg =
    Arg.(
      value
      & opt coalesce_conv `Commute
      & info [ "coalesce" ] ~docv:"MODE"
          ~doc:
            "Session queue discipline: $(b,commute) (the default — drain \
             exploiting the model-checked commutation laws) or $(b,fifo) \
             (strict arrival order, the measurable baseline).")
  in
  let run (e : Registry.entry) socket tcp size_opt length seed batch backend
      engine coalesce json verify =
    let size = Option.value ~default:e.default_size size_opt in
    let rng = Random.State.make [| seed |] in
    let reqs = e.workload rng ~size ~length in
    let client = Dynfo_server.Client.connect (addr_of socket tcp) in
    let session =
      Dynfo_server.Client.create client ~backend ~engine ~coalesce
        ~program:e.name ~size ()
    in
    let r = Dynfo_server.Loadgen.drive client ~session ~batch reqs in
    let stats = Dynfo_server.Client.stats client ~session in
    Dynfo_server.Client.destroy client ~session;
    Dynfo_server.Client.close client;
    let open Dynfo_server.Loadgen in
    if json then
      Printf.printf
        "{\"program\": %S, \"n\": %d, \"backend\": %S, \"engine\": %S, \
         \"coalesce\": %S, \"batch\": %d, \"updates\": %d, \"calls\": %d, \
         \"wall_s\": %.6f, \"updates_per_s\": %.1f, \"p50_us\": %.1f, \
         \"p99_us\": %.1f, \"max_us\": %.1f, \"step_p99_us\": %.1f, \
         \"work\": %d, \"ticks\": %d, \"groups\": %d, \"elided\": %d, \
         \"deduped\": %d, \"hoisted\": %d, \"final\": %b}\n"
        e.name size
        (Dynfo_server.Wire.backend_to_string backend)
        (Dynfo_server.Wire.engine_to_string engine)
        (Dynfo_server.Wire.coalesce_to_string coalesce)
        batch r.lg_updates r.lg_calls r.lg_wall_s r.lg_ups r.lg_p50_us
        r.lg_p99_us r.lg_max_us r.lg_step_p99_us r.lg_work stats.ticks
        stats.groups stats.elided stats.deduped stats.hoisted r.lg_final
    else
      Format.printf
        "%s n=%d backend=%s coalesce=%s batch=%d: %a (%d server ticks, %d \
         groups, %d elided, %d deduped)@."
        e.name size
        (Dynfo_server.Wire.backend_to_string backend)
        (Dynfo_server.Wire.coalesce_to_string coalesce)
        batch pp_result r stats.ticks stats.groups stats.elided stats.deduped;
    if verify then begin
      let final =
        Runner.query (Runner.run (Runner.init e.program ~size) reqs)
      in
      if final <> r.lg_final then begin
        Printf.eprintf
          "loadgen: served answer %b disagrees with offline replay %b\n"
          r.lg_final final;
        exit 1
      end
    end
  in
  Cmd.v
    (Cmd.info "loadgen"
       ~doc:
         "Drive a running daemon with a random workload in fixed-size \
          batches and report updates/sec and latency percentiles; \
          $(b,--verify) cross-checks the served answer against an \
          offline replay.")
    Term.(
      const run $ problem_arg $ socket_arg $ tcp_arg $ size_arg $ length_arg
      $ seed_arg $ batch_arg $ backend_arg $ engine_arg $ coalesce_arg
      $ json_arg $ verify_arg)

let () =
  Dynfo_analysis.Advisor.install ();
  Dynfo_analysis.Commute.install ();
  Dynfo_analysis.Defchange.install ();
  let doc = "Dyn-FO: dynamic first-order programs from Patnaik & Immerman" in
  let info = Cmd.info "dynfo_cli" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [ list_cmd; stats_cmd; analyze_cmd; optimize_cmd; run_cmd;
            check_cmd; serve_cmd; client_cmd; loadgen_cmd ]))
