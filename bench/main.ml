(* Benchmark harness: regenerates every experiment of EXPERIMENTS.md
   (E1..E15, one per theorem of the paper — the paper itself has no
   measured tables, so the experiments are the executable content of its
   results; see DESIGN.md section 4).

   For each experiment we print a table comparing, per request, the cost
   of: the first-order program (the paper's construction, run by the
   generic FO evaluator), the native dynamic data structure, and the
   recompute-from-scratch static baseline. The wall-clock shape to
   observe is dynamic << static as n grows, and the FO-work column grows
   polynomially with the arity of the update formulas.

   A Bechamel suite (one Test.make per experiment) follows the tables. *)

open Dynfo
open Dynfo_programs

let monotonic_ns () = Monotonic_clock.now ()

(* average cost per request (apply + query) over a workload, in
   microseconds *)
let us_per_request (d : Dyn.t) ~size reqs =
  let inst = d.create size () in
  let t0 = monotonic_ns () in
  List.iter
    (fun r ->
      inst.apply r;
      ignore (inst.query ()))
    reqs;
  let t1 = monotonic_ns () in
  Int64.to_float (Int64.sub t1 t0) /. 1e3 /. float (List.length reqs)

let fo_work_per_request program ~size reqs =
  let work = ref 0 in
  let state = ref (Runner.init program ~size) in
  List.iter
    (fun r ->
      state := Runner.step ~work !state r;
      ignore (Runner.query ~work !state))
    reqs;
  !work / List.length reqs

let header () =
  Printf.printf "  %6s %12s %12s %12s %14s %10s\n" "n" "fo(us)" "native(us)"
    "static(us)" "fo-work" "nat/stat"

let row ~size ~fo ~native ~static ~work =
  let ratio =
    match (native, static) with
    | Some n, Some s when n > 0. -> Printf.sprintf "%.2fx" (s /. n)
    | _ -> "-"
  in
  let f = function Some v -> Printf.sprintf "%.2f" v | None -> "-" in
  Printf.printf "  %6d %12s %12s %12s %14s %10s\n" size (f fo) (f native)
    (f static)
    (match work with Some w -> string_of_int w | None -> "-")
    ratio

(* one experiment: FO measured on [fo_sizes], native/static additionally
   on [scale_sizes] *)
let experiment ?scale_length ~id ~title (e : Registry.entry) ~fo_sizes
    ~scale_sizes ~length () =
  Printf.printf "\n== %s: %s (%s) ==\n" id title e.paper_ref;
  header ();
  List.iter
    (fun size ->
      let rng = Random.State.make [| 42; size |] in
      let reqs = e.workload rng ~size ~length in
      if reqs <> [] then begin
        let fo = us_per_request (Dyn.of_program e.program) ~size reqs in
        let native = Option.map (fun d -> us_per_request d ~size reqs) e.native in
        let static = Option.map (fun d -> us_per_request d ~size reqs) e.static in
        let work = fo_work_per_request e.program ~size reqs in
        row ~size ~fo:(Some fo) ~native ~static ~work:(Some work)
      end)
    fo_sizes;
  let scale_length = Option.value ~default:(fun _ -> length) scale_length in
  List.iter
    (fun size ->
      let rng = Random.State.make [| 42; size |] in
      let reqs = e.workload rng ~size ~length:(scale_length size) in
      if reqs <> [] && (e.native <> None || e.static <> None) then begin
        let native = Option.map (fun d -> us_per_request d ~size reqs) e.native in
        let static = Option.map (fun d -> us_per_request d ~size reqs) e.static in
        row ~size ~fo:None ~native ~static ~work:None
      end)
    scale_sizes

let graph_sizes = ([ 5; 7; 9 ], [ 16; 32; 64; 128 ])

let () =
  print_endline "Dyn-FO benchmark suite — one experiment per paper result";
  print_endline "(fo = paper's FO program on the generic evaluator;";
  print_endline " native = hand-coded dynamic structure; static = full";
  print_endline " recomputation per request; fo-work = FO atom evaluations";
  print_endline " per request, the CRAM[1] work measure of Corollary 5.7)";

  let reg = Registry.find in
  let fo_g, sc_g = graph_sizes in

  experiment ~id:"E1" ~title:"PARITY" (reg "parity")
    ~fo_sizes:[ 16; 64; 256 ] ~scale_sizes:[ 1024; 4096 ] ~length:300
    ~scale_length:(fun n -> n) ();

  experiment ~id:"E2" ~title:"undirected reachability REACH_u"
    (reg "reach_u") ~fo_sizes:fo_g ~scale_sizes:sc_g ~length:80
    ~scale_length:(fun n -> 4 * n) ();

  (* E2b: sequential state of the art — HDT O(log^2 n) vs the O(n+m)
     forest native vs BFS recomputation, on dense churn *)
  Printf.printf
    "\n== E2b: dynamic connectivity scaling (HDT vs forest vs BFS) ==\n";
  Printf.printf "  %6s %12s %12s %12s\n" "n" "hdt(us)" "forest(us)"
    "static(us)";
  List.iter
    (fun size ->
      let rng = Random.State.make [| 42; size |] in
      let reqs = Reach_u.workload rng ~size ~length:(6 * size) in
      let m d = us_per_request d ~size reqs in
      Printf.printf "  %6d %12.2f %12.2f %12.2f\n" size
        (m Reach_u.native_hdt) (m Reach_u.native) (m Reach_u.static))
    [ 32; 64; 128; 256; 512 ];

  experiment ~id:"E3" ~title:"acyclic reachability" (reg "reach_acyclic")
    ~fo_sizes:fo_g ~scale_sizes:sc_g ~length:80
    ~scale_length:(fun n -> 4 * n) ();

  experiment ~id:"E4" ~title:"transitive reduction" (reg "trans_reduction")
    ~fo_sizes:[ 5; 7; 9 ] ~scale_sizes:[] ~length:60 ();

  experiment ~id:"E5" ~title:"minimum spanning forest" (reg "msf")
    ~fo_sizes:[ 5; 6; 7 ] ~scale_sizes:[ 16; 32; 64 ] ~length:60
    ~scale_length:(fun n -> 4 * n) ();

  experiment ~id:"E6" ~title:"bipartiteness" (reg "bipartite")
    ~fo_sizes:[ 5; 6; 7 ] ~scale_sizes:[ 16; 32; 64 ] ~length:60
    ~scale_length:(fun n -> 4 * n) ();

  experiment ~id:"E7" ~title:"k-edge connectivity (k=1)" (reg "k_edge_1")
    ~fo_sizes:[ 4; 5; 6 ] ~scale_sizes:[] ~length:30 ();

  (* E7b: the composed query grows exponentially in k while its
     quantifier depth stays linear — the "constant k" tradeoff *)
  Printf.printf "\n== E7b: k-fold composed query growth (Theorem 4.5(2)) ==\n";
  Printf.printf "  %4s %14s %18s\n" "k" "formula size" "quantifier depth";
  List.iter
    (fun k ->
      let q = K_edge.query_formula k in
      Printf.printf "  %4d %14d %18d\n" k
        (Dynfo_logic.Formula.size q)
        (Dynfo_logic.Formula.quantifier_depth q))
    [ 0; 1; 2; 3 ];

  experiment ~id:"E8" ~title:"maximal matching" (reg "matching")
    ~fo_sizes:fo_g ~scale_sizes:sc_g ~length:80
    ~scale_length:(fun n -> 4 * n) ();

  experiment ~id:"E9" ~title:"lowest common ancestor" (reg "lca")
    ~fo_sizes:[ 5; 7; 9 ] ~scale_sizes:[] ~length:60 ();

  experiment ~id:"E10" ~title:"regular language membership" (reg "regular")
    ~fo_sizes:[ 6; 9; 12 ] ~scale_sizes:[ 64; 256; 1024 ] ~length:80
    ~scale_length:(fun n -> n) ();

  experiment ~id:"E11" ~title:"multiplication" (reg "mult")
    ~fo_sizes:[ 6; 9; 12 ] ~scale_sizes:[ 16; 32; 62 ] ~length:80
    ~scale_length:(fun n -> 2 * n) ();

  experiment ~id:"E12" ~title:"Dyck language D_2" (reg "dyck_2")
    ~fo_sizes:[ 6; 9; 12 ] ~scale_sizes:[] ~length:60 ();

  experiment ~id:"E15" ~title:"PAD(REACH_a)" (reg "pad_reach_a")
    ~fo_sizes:[ 4; 5; 6 ] ~scale_sizes:[] ~length:8 ();

  experiment ~id:"E16" ~title:"Eulerian circuits (derived)" (reg "eulerian")
    ~fo_sizes:[ 5; 6; 7 ] ~scale_sizes:[ 16; 32; 64 ] ~length:60
    ~scale_length:(fun n -> 4 * n) ();

  experiment ~id:"E17" ~title:"insert-only REACH (Dyn_s-FO)" (reg "semi_reach")
    ~fo_sizes:[ 5; 7; 9 ] ~scale_sizes:[ 16; 32; 64 ] ~length:60
    ~scale_length:(fun n -> 3 * n) ();

  (* E18: the multicore CRAM engine — sequential vs parallel update
     evaluation. REACH/closure-style programs and multiplication have
     the largest per-rule tuple spaces, so they are where tuple
     partitioning across domains pays. ~cutoff:0 forces the parallel
     path at every size so the curve shows the crossover; on a
     single-core host the ratio degenerates to ~1x (spawn + scheduling
     overhead only), the speedup shape needs real cores. *)
  let e18_lanes =
    max 4 (min 8 (Domain.recommended_domain_count ()))
  in
  Printf.printf
    "\n== E18: multicore CRAM engine, %d domains (FO = CRAM[1]) ==\n"
    e18_lanes;
  Printf.printf "  (host has %d recommended domain(s))\n"
    (Domain.recommended_domain_count ());
  let e18_rows = ref [] in
  Dynfo_engine.Pool.with_pool ~lanes:e18_lanes (fun pool ->
      List.iter
        (fun (name, sizes, length) ->
          let e = reg name in
          Printf.printf "  -- %s --\n" name;
          Printf.printf "  %6s %12s %12s %10s %14s\n" "n" "seq(us)"
            "par(us)" "speedup" "fo-work";
          List.iter
            (fun size ->
              let rng = Random.State.make [| 42; size |] in
              let reqs = e.workload rng ~size ~length in
              if reqs <> [] then begin
                let seq =
                  us_per_request (Dyn.of_program e.program) ~size reqs
                in
                let par =
                  us_per_request
                    (Dyn.of_program ~pool ~cutoff:0 e.program)
                    ~size reqs
                in
                let work = fo_work_per_request e.program ~size reqs in
                Printf.printf "  %6d %12.2f %12.2f %9.2fx %14d\n" size seq
                  par (seq /. par) work;
                e18_rows :=
                  (name, size, e18_lanes, seq, par, work) :: !e18_rows
              end)
            sizes)
        [
          ("reach_u", [ 6; 8; 10 ], 30);
          ("reach_acyclic", [ 6; 8; 10 ], 30);
          ("mult", [ 8; 12; 16 ], 30);
        ]);
  (* machine-readable trajectory: --json flag or BENCH_ENGINE_JSON=path *)
  (match
     if Array.exists (( = ) "--json") Sys.argv then Some "BENCH_engine.json"
     else Sys.getenv_opt "BENCH_ENGINE_JSON"
   with
  | None -> ()
  | Some path ->
      let oc = open_out path in
      output_string oc "[\n";
      List.iteri
        (fun i (name, size, lanes, seq, par, work) ->
          Printf.fprintf oc
            "  {\"experiment\": \"E18\", \"program\": %S, \"n\": %d, \
             \"domains\": %d, \"seq_us\": %.3f, \"par_us\": %.3f, \
             \"speedup\": %.3f, \"fo_work\": %d}%s\n"
            name size lanes seq par (seq /. par) work
            (if i = List.length !e18_rows - 1 then "" else ","))
        (List.rev !e18_rows);
      output_string oc "]\n";
      close_out oc;
      Printf.printf "  wrote %s (%d rows)\n" path (List.length !e18_rows));

  (* E20: set-at-a-time bitset backend — the tuple-at-a-time evaluator
     vs the bulk evaluator (dense bitsets, word kernels) vs the bulk
     evaluator with its kernels chunked across domains. The bulk
     backend's win is word-level parallelism *within one core*: 63
     candidate tuples per bitwise instruction. REACH-style programs
     (quantifier-heavy n^3 rule spaces) show it best, and the gap widens
     with n. par-bulk adds domains on top; on a single-core container
     it degenerates to ~1x over bulk (the word-level win remains). *)
  let e20_lanes = max 1 (min 8 (Domain.recommended_domain_count ())) in
  Printf.printf
    "\n== E20: bitset backend — tuple vs bulk vs par-bulk, %d domain(s) ==\n"
    e20_lanes;
  (* the experiments above leave a swollen major heap; the bulk backend
     allocates word arrays, so compact first and warm each measurement to
     keep the comparison about evaluation, not GC history *)
  let e20_measure d ~size reqs =
    ignore (us_per_request d ~size reqs);
    Gc.full_major ();
    us_per_request d ~size reqs
  in
  let bulk_work_per_request program ~size reqs =
    let work = ref 0 in
    let state = ref (Runner.init program ~size) in
    List.iter
      (fun r ->
        state := Runner.step ~work ~backend:`Bulk !state r;
        ignore (Runner.query ~work ~backend:`Bulk !state))
      reqs;
    !work / List.length reqs
  in
  let e20_rows = ref [] in
  Gc.compact ();
  Dynfo_engine.Pool.with_pool ~lanes:e20_lanes (fun pool ->
      List.iter
        (fun (name, sizes, length) ->
          let e = reg name in
          Printf.printf "  -- %s --\n" name;
          Printf.printf "  %6s %12s %12s %12s %10s %12s\n" "n" "tuple(us)"
            "bulk(us)" "par-bulk(us)" "speedup" "bulk-words";
          List.iter
            (fun size ->
              let rng = Random.State.make [| 42; size |] in
              let reqs = e.workload rng ~size ~length in
              if reqs <> [] then begin
                let tuple =
                  e20_measure (Dyn.of_program e.program) ~size reqs
                in
                let bulk =
                  e20_measure
                    (Dyn.of_program ~backend:`Bulk e.program)
                    ~size reqs
                in
                let par =
                  e20_measure
                    (Dyn.of_program ~pool ~backend:`Bulk e.program)
                    ~size reqs
                in
                let words = bulk_work_per_request e.program ~size reqs in
                Printf.printf "  %6d %12.2f %12.2f %12.2f %9.2fx %12d\n" size
                  tuple bulk par (tuple /. bulk) words;
                e20_rows :=
                  (name, size, e20_lanes, tuple, bulk, par, words)
                  :: !e20_rows
              end)
            sizes)
        [
          ("reach_u", [ 6; 8; 10; 12; 14 ], 30);
          ("bipartite", [ 6; 8; 10 ], 30);
          ("eulerian", [ 6; 8; 10 ], 30);
          ("mult", [ 8; 12; 16 ], 30);
        ]);
  (match
     if Array.exists (( = ) "--json") Sys.argv then Some "BENCH_bulk.json"
     else Sys.getenv_opt "BENCH_BULK_JSON"
   with
  | None -> ()
  | Some path ->
      let oc = open_out path in
      output_string oc "[\n";
      List.iteri
        (fun i (name, size, lanes, tuple, bulk, par, words) ->
          Printf.fprintf oc
            "  {\"experiment\": \"E20\", \"program\": %S, \"n\": %d, \
             \"domains\": %d, \"tuple_us\": %.3f, \"bulk_us\": %.3f, \
             \"par_bulk_us\": %.3f, \"speedup\": %.3f, \"bulk_words\": %d}%s\n"
            name size lanes tuple bulk par (tuple /. bulk) words
            (if i = List.length !e20_rows - 1 then "" else ","))
        (List.rev !e20_rows);
      output_string oc "]\n";
      close_out oc;
      Printf.printf "  wrote %s (%d rows)\n" path (List.length !e20_rows));

  (* E21: the verified formula optimizer — measured FO work and wall
     clock per request, before vs after Rewrite.optimize_program, on
     both backends, over the whole registry. The work column is the
     CRAM[1] atom-evaluation count (word count under bulk), so the
     optimizer's effect is hardware-independent there; the us columns
     are wall clock on however many cores the host has (1-core hosts
     still show the work drop). *)
  Printf.printf
    "\n== E21: verified optimizer — work/time before vs after ==\n";
  Printf.printf "  %-16s %4s %10s %10s %7s %9s %9s %9s %9s\n" "program" "n"
    "work" "work-opt" "ratio" "tuple" "tuple-opt" "bulk" "bulk-opt";
  let e21_measure backend program ~size reqs =
    let d = Dyn.of_program ~backend program in
    ignore (us_per_request d ~size reqs);
    Gc.full_major ();
    us_per_request d ~size reqs
  in
  let backend_work backend program ~size reqs =
    let work = ref 0 in
    let state = ref (Runner.init program ~size) in
    List.iter
      (fun r ->
        state := Runner.step ~work ~backend !state r;
        ignore (Runner.query ~work ~backend !state))
      reqs;
    !work / List.length reqs
  in
  let e21_rows = ref [] in
  Gc.compact ();
  List.iter
    (fun (e : Registry.entry) ->
      let size = e.default_size in
      let rng = Random.State.make [| 42; size |] in
      let reqs = e.workload rng ~size ~length:30 in
      if reqs <> [] then begin
        let rep = Dynfo_analysis.Rewrite.optimize_program e.program in
        let opt = rep.Dynfo_analysis.Rewrite.optimized in
        let work = backend_work `Tuple e.program ~size reqs in
        let work_opt = backend_work `Tuple opt ~size reqs in
        let tuple = e21_measure `Tuple e.program ~size reqs in
        let tuple_opt = e21_measure `Tuple opt ~size reqs in
        let bulk = e21_measure `Bulk e.program ~size reqs in
        let bulk_opt = e21_measure `Bulk opt ~size reqs in
        Printf.printf
          "  %-16s %4d %10d %10d %6.2fx %9.2f %9.2f %9.2f %9.2f\n" e.name
          size work work_opt
          (float work /. float (max 1 work_opt))
          tuple tuple_opt bulk bulk_opt;
        e21_rows :=
          (e.name, size, work, work_opt, tuple, tuple_opt, bulk, bulk_opt)
          :: !e21_rows
      end)
    Registry.all;
  (match
     if Array.exists (( = ) "--json") Sys.argv then Some "BENCH_opt.json"
     else Sys.getenv_opt "BENCH_OPT_JSON"
   with
  | None -> ()
  | Some path ->
      let oc = open_out path in
      output_string oc "[\n";
      List.iteri
        (fun i (name, size, work, work_opt, tuple, tuple_opt, bulk, bulk_opt)
           ->
          Printf.fprintf oc
            "  {\"experiment\": \"E21\", \"version\": 2, \"program\": %S, \
             \"n\": %d, \"work\": %d, \"work_opt\": %d, \"work_ratio\": \
             %.3f, \"tuple_us\": %.3f, \"tuple_opt_us\": %.3f, \
             \"bulk_us\": %.3f, \"bulk_opt_us\": %.3f}%s\n"
            name size work work_opt
            (float work /. float (max 1 work_opt))
            tuple tuple_opt bulk bulk_opt
            (if i = List.length !e21_rows - 1 then "" else ","))
        (List.rev !e21_rows);
      output_string oc "]\n";
      close_out oc;
      Printf.printf "  wrote %s (%d rows)\n" path (List.length !e21_rows));

  (* E22: incremental delta backend — measured per-step work and wall
     clock of tuple vs bulk vs delta on the same workloads. The delta
     backend re-evaluates rule bodies only on the dirty frontier the
     static support analysis derives (pins from parameter equalities,
     runtime guards, anchors on temporaries), so its work column
     undercuts both full backends wherever frontiers stay small relative
     to the rule spaces; a step whose frontier exceeds --delta-cutoff of
     the space recomputes in full on the advisor's fallback backend.
     The work column is the hardware-independent measure (atom
     evaluations / words, as in E20-E21); on a 1-core host wall clock
     tracks it only loosely — the tuple evaluator short-circuits and
     delta pays mask bookkeeping per step. *)
  Printf.printf
    "\n== E22: delta backend — per-step work, tuple vs bulk vs delta ==\n";
  Dynfo_analysis.Advisor.install ();
  Dynfo_analysis.Commute.install ();
  Dynfo_analysis.Defchange.install ();
  Printf.printf "  %-14s %4s %10s %10s %10s %9s %9s %9s %9s\n" "program" "n"
    "t-work" "b-work" "d-work" "t-us" "b-us" "d-us" "fallback";
  let e22_rows = ref [] in
  Gc.compact ();
  List.iter
    (fun (name, sizes, length) ->
      let e = reg name in
      let fallback = Dynfo_analysis.Advisor.fallback_of e.program in
      let fb_str =
        Dynfo_analysis.Advisor.backend_string
          (fallback :> [ `Tuple | `Bulk | `Delta ])
      in
      List.iter
        (fun size ->
          let rng = Random.State.make [| 42; size |] in
          let reqs = e.workload rng ~size ~length in
          if reqs <> [] then begin
            let t_work = backend_work `Tuple e.program ~size reqs in
            let b_work = backend_work `Bulk e.program ~size reqs in
            let d_work = backend_work `Delta e.program ~size reqs in
            let t_us = e21_measure `Tuple e.program ~size reqs in
            let b_us = e21_measure `Bulk e.program ~size reqs in
            let d_us = e21_measure `Delta e.program ~size reqs in
            Printf.printf
              "  %-14s %4d %10d %10d %10d %9.2f %9.2f %9.2f %9s\n" name size
              t_work b_work d_work t_us b_us d_us fb_str;
            e22_rows :=
              (name, size, t_work, b_work, d_work, t_us, b_us, d_us, fb_str)
              :: !e22_rows
          end)
        sizes)
    [
      ("parity", [ 16; 64; 256 ], 60);
      ("reach_u", [ 6; 8; 10 ], 40);
      ("reach_acyclic", [ 6; 8; 10 ], 40);
      ("matching", [ 6; 8; 10 ], 40);
      ("lca", [ 6; 8; 10 ], 40);
      ("semi_reach", [ 6; 8; 10 ], 40);
      ("dyck_2", [ 6; 9; 12 ], 40);
    ];
  (match
     if Array.exists (( = ) "--json") Sys.argv then Some "BENCH_delta.json"
     else Sys.getenv_opt "BENCH_DELTA_JSON"
   with
  | None -> ()
  | Some path ->
      let oc = open_out path in
      output_string oc "[\n";
      List.iteri
        (fun i (name, size, t_work, b_work, d_work, t_us, b_us, d_us, fb) ->
          Printf.fprintf oc
            "  {\"experiment\": \"E22\", \"program\": %S, \"n\": %d, \
             \"tuple_work\": %d, \"bulk_work\": %d, \"delta_work\": %d, \
             \"tuple_us\": %.3f, \"bulk_us\": %.3f, \"delta_us\": %.3f, \
             \"work_ratio_vs_tuple\": %.3f, \"fallback\": %S}%s\n"
            name size t_work b_work d_work t_us b_us d_us
            (float t_work /. float (max 1 d_work))
            fb
            (if i = List.length !e22_rows - 1 then "" else ","))
        (List.rev !e22_rows);
      output_string oc "]\n";
      close_out oc;
      Printf.printf "  wrote %s (%d rows)\n" path (List.length !e22_rows));

  (* E23: the serving daemon — updates/sec and latency percentiles
     through the full wire path (JSON protocol over a Unix socket,
     per-session worker thread, batch = one evaluation tick), across
     all four backends and batch sizes 1/16/256. The batch column is
     where the serving layer's amortisation shows: one validation pass,
     one [`Auto] resolution and one round of delta tester rebinds per
     tick instead of per request, plus one protocol round trip per
     batch. Latencies are client-observed round trips on a loopback
     socket; on a 1-core host the server worker and the client share
     the core, so absolute numbers are conservative — the cross-backend
     and cross-batch ratios are the signal. Every run's final answer is
     cross-checked against an offline sequential replay of the same
     request list. *)
  Printf.printf
    "\n== E23: serving daemon — throughput/latency by backend and batch ==\n";
  let e23_rows = ref [] in
  let e23_mismatches = ref 0 in
  let sock =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "dynfo_bench_%d.sock" (Unix.getpid ()))
  in
  let server_thread =
    Thread.create
      (fun () ->
        ignore
          (Dynfo_server.Server.run
             {
               Dynfo_server.Server.addr = `Unix sock;
               lanes = Some 1;
               find_program =
                 (fun name ->
                   match Registry.find name with
                   | e -> Some e.Registry.program
                   | exception Not_found -> None);
             }))
      ()
  in
  let rec connect tries =
    match Dynfo_server.Client.connect (`Unix sock) with
    | c -> c
    | exception Unix.Unix_error ((Unix.ECONNREFUSED | Unix.ENOENT), _, _)
      when tries > 0 ->
        Thread.delay 0.05;
        connect (tries - 1)
  in
  let client = connect 100 in
  Printf.printf "  %-10s %8s %6s %10s %10s %10s %12s %10s\n" "program"
    "backend" "batch" "upd/s" "p50(us)" "p99(us)" "step-p99(us)" "work";
  List.iter
    (fun (name, size, length) ->
      let e = reg name in
      let rng = Random.State.make [| 42; size |] in
      let reqs = e.workload rng ~size ~length in
      let offline =
        Runner.query (Runner.run (Runner.init e.program ~size) reqs)
      in
      List.iter
        (fun backend ->
          List.iter
            (fun batch ->
              let session =
                Dynfo_server.Client.create client ~backend ~program:name ~size
                  ()
              in
              let r =
                Dynfo_server.Loadgen.drive client ~session ~batch reqs
              in
              Dynfo_server.Client.destroy client ~session;
              if r.Dynfo_server.Loadgen.lg_final <> offline then begin
                incr e23_mismatches;
                Printf.printf
                  "  MISMATCH: %s backend=%s batch=%d served %b, offline %b\n"
                  name
                  (Dynfo_server.Wire.backend_to_string backend)
                  batch r.Dynfo_server.Loadgen.lg_final offline
              end;
              let open Dynfo_server.Loadgen in
              Printf.printf
                "  %-10s %8s %6d %10.0f %10.1f %10.1f %12.1f %10d\n" name
                (Dynfo_server.Wire.backend_to_string backend)
                batch r.lg_ups r.lg_p50_us r.lg_p99_us r.lg_step_p99_us
                r.lg_work;
              e23_rows := (name, size, backend, batch, r) :: !e23_rows)
            [ 1; 16; 256 ])
        [ `Tuple; `Bulk; `Delta; `Auto ])
    [ ("parity", 64, 256); ("reach_u", 8, 256) ];
  Dynfo_server.Client.shutdown client;
  Dynfo_server.Client.close client;
  Thread.join server_thread;
  if !e23_mismatches > 0 then
    Printf.printf "  E23: %d served/offline answer mismatches!\n"
      !e23_mismatches
  else Printf.printf "  (every served answer matches the offline replay)\n";
  (match
     if Array.exists (( = ) "--json") Sys.argv then Some "BENCH_serve.json"
     else Sys.getenv_opt "BENCH_SERVE_JSON"
   with
  | None -> ()
  | Some path ->
      let oc = open_out path in
      output_string oc "[\n";
      let rows = List.rev !e23_rows in
      List.iteri
        (fun i (name, size, backend, batch, r) ->
          let open Dynfo_server.Loadgen in
          Printf.fprintf oc
            "  {\"experiment\": \"E23\", \"program\": %S, \"n\": %d, \
             \"backend\": %S, \"batch\": %d, \"updates\": %d, \
             \"updates_per_s\": %.1f, \"p50_us\": %.1f, \"p99_us\": %.1f, \
             \"max_us\": %.1f, \"step_p99_us\": %.1f, \"work\": %d, \
             \"final\": %b}%s\n"
            name size
            (Dynfo_server.Wire.backend_to_string backend)
            batch r.lg_updates r.lg_ups r.lg_p50_us r.lg_p99_us r.lg_max_us
            r.lg_step_p99_us r.lg_work r.lg_final
            (if i = List.length rows - 1 then "" else ","))
        rows;
      output_string oc "]\n";
      close_out oc;
      Printf.printf "  wrote %s (%d rows)\n" path (List.length rows));

  (* E24a: the µs calibration behind the advisor's wall-clock frontier
     cutoff ([Advisor.of_program ~size]). The per-step delta cost is
     modeled as rules·setup_us + frontier·retest_us and the full
     recompute as space·full_tuple_us; measuring delta steps at two
     universe sizes of the same program (same rule count, different
     frontier estimate) gives two equations in the two delta unknowns,
     and a tuple-backend run gives the third constant. The fitted
     values are compared against the checked-in table
     (lib/analysis/calibration.ml) that ships with the advisor. *)
  Printf.printf
    "\n== E24a: delta calibration — µs constants behind the advisor \
     cutoff ==\n";
  let median3 f =
    match List.sort compare [ f (); f (); f () ] with
    | [ _; m; _ ] -> m
    | _ -> assert false
  in
  let per_step_us backend (e : Registry.entry) ~size ~length =
    let rng = Random.State.make [| 24; size |] in
    let reqs = e.workload rng ~size ~length in
    let st = Runner.init e.program ~size in
    ignore (Runner.run ~backend st reqs);
    (* warm runs only (planner, testers and memo tables ready), median
       of three: a one-off scheduler hiccup on the shared 1-core CI
       host must not decide a timing-sensitive gate *)
    median3 (fun () ->
        let t0 = monotonic_ns () in
        ignore (Runner.run ~backend st reqs);
        let t1 = monotonic_ns () in
        Int64.to_float (Int64.sub t1 t0) /. 1e3 /. float (List.length reqs))
  in
  let e_cal = reg "reach_u" in
  let cal_point n =
    let rules, frontier, _ =
      Dynfo_analysis.Advisor.delta_estimates e_cal.program ~size:n
    in
    (float rules, float frontier, per_step_us `Delta e_cal ~size:n ~length:(8 * n))
  in
  let ra, fa, ta = cal_point 8 in
  let rb, fb, tb = cal_point 16 in
  let det = (ra *. fb) -. (rb *. fa) in
  let default = Dynfo_analysis.Calibration.default in
  let cal_mask, cal_retest =
    if Float.abs det < 1e-9 then
      (default.setup_us, default.retest_us)
    else
      ( Float.max 0.01 (((ta *. fb) -. (tb *. fa)) /. det),
        Float.max 0.01 (((ra *. tb) -. (rb *. ta)) /. det) )
  in
  let cal_full =
    let _, _, space =
      Dynfo_analysis.Advisor.delta_estimates e_cal.program ~size:16
    in
    Float.max 0.001 (per_step_us `Tuple e_cal ~size:16 ~length:128 /. float space)
  in
  Printf.printf
    "  measured: setup %.2f us/rule, retest %.2f us/tuple, full \
     %.3f us/tuple\n"
    cal_mask cal_retest cal_full;
  Printf.printf "  checked-in: %s\n"
    (Json.to_string (Dynfo_analysis.Calibration.to_json default));

  (* E25: persistent incremental frontiers — warm per-step update
     latency of tuple vs bulk vs delta, sized per program so the
     asymptotics are visible (the frontier grows slower than the tuple
     space on the programs where the advisor picks delta; dyck_2 and
     semi_reach carry size-proportional frontiers and stay close races
     by design).
     Unlike E22's cold replay (fresh instance per run, queries
     interleaved), each backend replays its workload twice from the
     same start state and times only the second pass: the planner,
     compiled testers, persistent masks and anchor caches are warm —
     the steady-state serving regime the persistent-frontier state
     targets. Before timing, every cell is lockstep-verified: tuple,
     bulk and delta replay the same requests side by side and must
     agree on every intermediate structure and every query answer.
     1-core caveat: absolute µs are the reference host's; the
     cross-backend ratios are the signal. --gate turns the headline
     inequality (delta no slower than bulk on parity / reach_acyclic /
     lca at these sizes) into a nonzero exit for CI. *)
  Printf.printf
    "\n== E25: persistent frontiers — warm per-step us, tuple vs bulk vs \
     delta ==\n";
  Printf.printf "  %-14s %4s %9s %9s %9s %8s %9s\n" "program" "n" "t-us"
    "b-us" "d-us" "t/d" "verified";
  let e25_rows = ref [] in
  Gc.compact ();
  List.iter
    (fun (name, size, length) ->
      let e = reg name in
      let rng = Random.State.make [| 25; size |] in
      let reqs = e.workload rng ~size ~length in
      if reqs <> [] then begin
        let seq = ref (Runner.init e.program ~size) in
        let bulk = ref (Runner.init e.program ~size) in
        let delta = ref (Runner.init e.program ~size) in
        let verified = ref true in
        List.iter
          (fun r ->
            seq := Runner.step !seq r;
            bulk := Runner.step ~backend:`Bulk !bulk r;
            delta := Runner.step ~backend:`Delta !delta r;
            if
              not
                (Dynfo_logic.Structure.equal (Runner.structure !seq)
                   (Runner.structure !delta)
                && Dynfo_logic.Structure.equal (Runner.structure !seq)
                     (Runner.structure !bulk)
                && Runner.query !seq = Runner.query ~backend:`Delta !delta)
            then verified := false)
          reqs;
        let t_us = per_step_us `Tuple e ~size ~length in
        let b_us = per_step_us `Bulk e ~size ~length in
        let d_us = per_step_us `Delta e ~size ~length in
        Printf.printf "  %-14s %4d %9.2f %9.2f %9.2f %7.2fx %9s\n" name size
          t_us b_us d_us
          (t_us /. Float.max 0.001 d_us)
          (if !verified then "ok" else "MISMATCH");
        e25_rows := (name, size, t_us, b_us, d_us, !verified) :: !e25_rows
      end)
    [
      ("parity", 256, 60);
      ("parity", 1024, 60);
      ("reach_u", 10, 40);
      ("reach_acyclic", 12, 40);
      ("matching", 12, 40);
      ("lca", 12, 40);
      ("semi_reach", 10, 40);
      ("dyck_2", 12, 40);
    ];
  let e25_mismatches =
    List.length (List.filter (fun (_, _, _, _, _, v) -> not v) !e25_rows)
  in
  if e25_mismatches > 0 then
    Printf.printf "  E25: %d lockstep verification failures!\n" e25_mismatches;
  (match
     if Array.exists (( = ) "--json") Sys.argv then Some "BENCH_delta2.json"
     else Sys.getenv_opt "BENCH_DELTA2_JSON"
   with
  | None -> ()
  | Some path ->
      let oc = open_out path in
      output_string oc "[\n";
      List.iteri
        (fun i (name, size, t_us, b_us, d_us, verified) ->
          Printf.fprintf oc
            "  {\"experiment\": \"E25\", \"program\": %S, \"n\": %d, \
             \"tuple_us\": %.3f, \"bulk_us\": %.3f, \"delta_us\": %.3f, \
             \"speedup_vs_tuple\": %.3f, \"speedup_vs_bulk\": %.3f, \
             \"verified\": %b}%s\n"
            name size t_us b_us d_us
            (t_us /. Float.max 0.001 d_us)
            (b_us /. Float.max 0.001 d_us)
            verified
            (if i = List.length !e25_rows - 1 then "" else ","))
        (List.rev !e25_rows);
      output_string oc "]\n";
      close_out oc;
      Printf.printf "  wrote %s (%d rows)\n" path (List.length !e25_rows));
  if Array.exists (( = ) "--gate") Sys.argv then begin
    let gated = [ "parity"; "reach_acyclic"; "lca" ] in
    (* gate at the largest smoke n per program: the asymptotic regime
       the persistent state targets — smaller sizes are close races by
       construction and stay informational. The 15% tolerance absorbs
       residual timer noise the median-of-3 cannot (the inequality to
       protect is asymptotic, not a photo finish). *)
    let tolerance = 1.15 in
    let largest name =
      List.fold_left
        (fun acc (n, sz, _, _, _, _) -> if n = name then max acc sz else acc)
        0 !e25_rows
    in
    let failures =
      List.filter
        (fun (name, size, _, b_us, d_us, verified) ->
          List.mem name gated
          && size = largest name
          && ((not verified) || d_us > tolerance *. b_us))
        !e25_rows
    in
    List.iter
      (fun (name, size, _, b_us, d_us, verified) ->
        Printf.printf
          "  E25 gate FAIL: %s n=%d delta %.2f us vs bulk %.2f us%s\n" name
          size d_us b_us
          (if verified then "" else " (lockstep mismatch)"))
      failures;
    if e25_mismatches > 0 || failures <> [] then exit 1;
    Printf.printf "  E25 gate: delta <= bulk on %s — ok\n"
      (String.concat ", " gated)
  end;

  (* E26: batched updates — one [Runner.step_batch] tick vs the
     singleton-sequence fold, per batch size and request form. [list]
     rows submit explicit tuple-list requests (ins*/del*, duplicates
     kept — retry churn); [def] rows submit FO-defined set changes
     (insdef/deldef with a range formula) whose expansion against the
     tick's pre-state is part of the timed batch path. The fold
     baseline replays the pre-expanded singletons through [Runner.run]
     — no planner, no elision, no shared delta batch scope — which is
     exactly what the Defchange verdicts license skipping. Every cell
     is verified offline first: the batch tick and the singleton replay
     must agree on the final structure and the query answer. µs are per
     effective singleton update. 1-core caveat: absolute numbers are
     the reference host's; the batch/fold ratio per backend is the
     signal. *)
  Printf.printf
    "\n== E26: batched updates — step_batch tick vs singleton fold ==\n";
  Printf.printf "  %-10s %4s %4s %5s %-6s %10s %10s %7s %9s\n" "program" "n"
    "form" "batch" "bknd" "batch-us" "fold-us" "f/b" "verified";
  let e26_rows = ref [] in
  let e26_mismatches = ref 0 in
  Gc.compact ();
  List.iter
    (fun (name, size, warm_len) ->
      let e = reg name in
      let rel =
        match Dynfo_logic.Vocab.relations e.program.input_vocab with
        | (s : Dynfo_logic.Vocab.sym) :: _ -> s
        | [] -> assert false
      in
      let arity = rel.Dynfo_logic.Vocab.arity in
      List.iter
        (fun k ->
          let rng = Random.State.make [| 26; size; k |] in
          (* steady state: a warmed instance partway through a workload *)
          let s0 =
            Runner.run (Runner.init e.program ~size)
              (e.workload rng ~size ~length:warm_len)
          in
          let sample_tuples m =
            List.init m (fun _ ->
                Array.init arity (fun _ -> Random.State.int rng size))
          in
          let forms =
            let half = max 1 (k / 2) in
            let lim m =
              (* a range formula denoting ~m tuples of the space *)
              let per_coord =
                int_of_float
                  (Float.round
                     (Float.pow (float m) (1. /. float (max 1 arity))))
              in
              max 1 (min size per_coord)
            in
            let range_formula m =
              let vars = List.init arity (fun i -> Printf.sprintf "x%d" i) in
              ( vars,
                Dynfo_logic.Formula.conj
                  (List.map
                     (fun x ->
                       Dynfo_logic.Formula.Lt
                         (Dynfo_logic.Formula.Var x, Dynfo_logic.Formula.Num (lim m)))
                     vars) )
            in
            [
              ( "list",
                [
                  Request.Ins_set (rel.name, sample_tuples half);
                  Request.Del_set (rel.name, sample_tuples (k - half));
                ] );
              ( "def",
                let vars, phi = range_formula half in
                [
                  Request.Ins_def (rel.name, vars, phi);
                  Request.Del_def (rel.name, vars, phi);
                ] );
            ]
          in
          List.iter
            (fun (form, batch_reqs) ->
              let expanded =
                Request.expand_batch (Runner.structure s0) batch_reqs
              in
              let effective = max 1 (List.length expanded) in
              List.iter
                (fun backend ->
                  let bname =
                    match backend with
                    | `Tuple -> "tuple"
                    | `Bulk -> "bulk"
                    | `Delta -> "delta"
                    | `Auto -> "auto"
                  in
                  let fold_s = Runner.run ~backend s0 expanded in
                  let batch_s = Runner.step_batch ~backend s0 batch_reqs in
                  let verified =
                    Dynfo_logic.Structure.equal (Runner.structure fold_s)
                      (Runner.structure batch_s)
                    && Runner.query ~backend fold_s
                       = Runner.query ~backend batch_s
                  in
                  if not verified then incr e26_mismatches;
                  (* the verification pass doubles as warmup; big
                     batches get one timed pass, small ones median-3 *)
                  let timed f =
                    let one () =
                      let t0 = monotonic_ns () in
                      ignore (f ());
                      let t1 = monotonic_ns () in
                      Int64.to_float (Int64.sub t1 t0)
                      /. 1e3 /. float effective
                    in
                    if k > 256 then one () else median3 one
                  in
                  let batch_us =
                    timed (fun () -> Runner.step_batch ~backend s0 batch_reqs)
                  in
                  let fold_us =
                    timed (fun () -> Runner.run ~backend s0 expanded)
                  in
                  Printf.printf
                    "  %-10s %4d %4s %5d %-6s %10.3f %10.3f %6.2fx %9s\n"
                    name size form k bname batch_us fold_us
                    (fold_us /. Float.max 0.001 batch_us)
                    (if verified then "ok" else "MISMATCH");
                  e26_rows :=
                    (name, size, form, k, bname, batch_us, fold_us, verified)
                    :: !e26_rows)
                [ `Tuple; `Bulk; `Delta ])
            forms)
        [ 1; 16; 256; 4096 ])
    [ ("parity", 256, 60); ("reach_u", 10, 40) ];
  if !e26_mismatches > 0 then
    Printf.printf "  E26: %d batch/fold verification failures!\n"
      !e26_mismatches;
  (match
     if Array.exists (( = ) "--json") Sys.argv then Some "BENCH_batch.json"
     else Sys.getenv_opt "BENCH_BATCH_JSON"
   with
  | None -> ()
  | Some path ->
      let oc = open_out path in
      output_string oc "[\n";
      let rows = List.rev !e26_rows in
      List.iteri
        (fun i (name, size, form, k, bname, batch_us, fold_us, verified) ->
          Printf.fprintf oc
            "  {\"experiment\": \"E26\", \"program\": %S, \"n\": %d, \
             \"form\": %S, \"batch\": %d, \"backend\": %S, \"batch_us\": \
             %.3f, \"fold_us\": %.3f, \"speedup\": %.3f, \"verified\": \
             %b}%s\n"
            name size form k bname batch_us fold_us
            (fold_us /. Float.max 0.001 batch_us)
            verified
            (if i = List.length rows - 1 then "" else ","))
        rows;
      output_string oc "]\n";
      close_out oc;
      Printf.printf "  wrote %s (%d rows)\n" path (List.length rows));
  if Array.exists (( = ) "--gate") Sys.argv && !e26_mismatches > 0 then begin
    Printf.printf "  E26 gate FAIL: batch/fold mismatch\n";
    exit 1
  end;

  (* E27: paged bitsets — dense vs paged word kernels on the delta
     backend, from smoke sizes (where the flat dense array is the floor
     to beat) up to n = 10^4 on the reachability-class program. The
     dense arm forces [`Dense], the paged arm [`Paged]; the wire format
     is representation-independent, so lockstep verification compares
     content, not layout. Every timed cell is verified first: dense
     and paged replay the same requests side by side and must agree on
     every intermediate structure and every query answer; at smoke
     sizes the tuple backend referees both. The scale cells report the
     per-step MAX as well as the median — bounded worst-case step
     latency at n = 10^4 is the claim the page table buys (reach_u
     itself stays at smoke n: past the mask budget its full-recompute
     fallback meets the n^5 scope node, a work bound no representation
     lifts — semi_reach carries the reachability class to 10^4).
     1-core caveat: absolute us are the reference host's; the
     dense/paged ratio per cell is the signal. Each arm's figures are
     medians over [e27_repeats] timed runs that alternate dense and
     paged (the order flips every repeat), printed with the range of
     the per-run medians: one run per arm spread the gated ratio from
     0.62 to 1.53 around 1.00 on a 2-vCPU host. The ratio column is
     the median (and range) of the per-repeat paged/dense ratios: a
     repeat's two runs are adjacent in time, so a host speed switch
     scales both and cancels in their ratio, and one that falls between
     them moves that repeat's ratio only, which the median absorbs —
     where the two arms' own medians can land in different speed
     bands. --gate turns the headline (that ratio median within the
     tolerance at the largest n, every cell verified) into a nonzero
     exit for CI. *)
  let e27_repeats = 5 in
  Printf.printf
    "\n== E27: paged bitsets — dense vs paged delta, smoke to n=10^4 ==\n";
  Printf.printf
    "  (median of %d alternating runs per arm; range = min-max of the run \
     medians)\n"
    e27_repeats;
  Printf.printf "  %-12s %6s %10s %10s %10s %10s %7s %9s %17s %17s %17s\n"
    "program" "n" "dense-us" "paged-us" "d-max-us" "p-max-us" "pages"
    "verified" "d-range-us" "p-range-us" "p/d-ratio";
  let e27_rows = ref [] in
  let e27_repr (repr : Dynfo_logic.Bitrel.repr) f =
    Dynfo_logic.Bitrel.set_default_repr repr;
    Fun.protect
      ~finally:(fun () -> Dynfo_logic.Bitrel.set_default_repr `Auto)
      f
  in
  (* timed replay under a forced representation: warm pass first
     (planner, testers and persistent masks resident in [st0]'s frontier
     cache), then median and max per-step us over the workload replayed
     from [st0] again *)
  let e27_timed repr (e : Registry.entry) ~size ~length =
    e27_repr repr (fun () ->
        let rng = Random.State.make [| 27; size |] in
        let reqs = e.workload rng ~size ~length in
        let st0 = Runner.init e.program ~size in
        ignore (Runner.run ~backend:`Delta st0 reqs);
        let st = ref st0 in
        let samples = Array.make (max 1 (List.length reqs)) 0. in
        List.iteri
          (fun i r ->
            let t0 = monotonic_ns () in
            st := Runner.step ~backend:`Delta !st r;
            let t1 = monotonic_ns () in
            samples.(i) <- Int64.to_float (Int64.sub t1 t0) /. 1e3)
          reqs;
        Array.sort compare samples;
        ( samples.(Array.length samples / 2),
          samples.(Array.length samples - 1) ))
  in
  Gc.compact ();
  List.iter
    (fun (name, size, length, with_tuple) ->
      let e = reg name in
      let rng = Random.State.make [| 27; size |] in
      let reqs = e.workload rng ~size ~length in
      if reqs <> [] then begin
        let dense = ref (Runner.init e.program ~size) in
        let paged =
          e27_repr `Paged (fun () -> ref (Runner.init e.program ~size))
        in
        let tup = ref (Runner.init e.program ~size) in
        let verified = ref true in
        List.iter
          (fun r ->
            Dynfo_logic.Bitrel.set_default_repr `Dense;
            dense := Runner.step ~backend:`Delta !dense r;
            Dynfo_logic.Bitrel.set_default_repr `Paged;
            paged := Runner.step ~backend:`Delta !paged r;
            Dynfo_logic.Bitrel.set_default_repr `Auto;
            if with_tuple then tup := Runner.step !tup r;
            if
              not
                (Dynfo_logic.Structure.equal (Runner.structure !dense)
                   (Runner.structure !paged)
                && Runner.query ~backend:`Delta !dense
                   = Runner.query ~backend:`Delta !paged
                && ((not with_tuple)
                   || Dynfo_logic.Structure.equal (Runner.structure !tup)
                        (Runner.structure !paged)))
            then verified := false)
          reqs;
        (* pages: what one paged run allocates *)
        let dense = Array.make e27_repeats (0., 0.) in
        let paged = Array.make e27_repeats (0., 0.) in
        let pages = ref 0 in
        for i = 0 to e27_repeats - 1 do
          let run_dense () = dense.(i) <- e27_timed `Dense e ~size ~length in
          let run_paged () =
            let pa0 = Dynfo_logic.Bitrel.pages_allocated () in
            paged.(i) <- e27_timed `Paged e ~size ~length;
            pages := Dynfo_logic.Bitrel.pages_allocated () - pa0
          in
          if i mod 2 = 0 then (run_dense (); run_paged ())
          else (run_paged (); run_dense ())
        done;
        let sorted f runs =
          let a = Array.map f runs in
          Array.sort compare a;
          a
        in
        let med a = a.(Array.length a / 2) in
        let d_runs = sorted fst dense and p_runs = sorted fst paged in
        let d_us = med d_runs and p_us = med p_runs in
        let d_max = med (sorted snd dense) and p_max = med (sorted snd paged) in
        let range a = (a.(0), a.(Array.length a - 1)) in
        let d_range = range d_runs and p_range = range p_runs in
        let ratios =
          sorted Fun.id (Array.map2 (fun (p, _) (d, _) -> p /. d) paged dense)
        in
        let ratio = med ratios and r_lo, r_hi = range ratios in
        let pages = !pages in
        let pp_range (lo, hi) = Printf.sprintf "%.2f-%.2f" lo hi in
        Printf.printf
          "  %-12s %6d %10.2f %10.2f %10.0f %10.0f %7d %9s %17s %17s %17s\n"
          name size d_us p_us d_max p_max pages
          (if !verified then "ok" else "MISMATCH")
          (pp_range d_range) (pp_range p_range)
          (Printf.sprintf "%.2f (%.2f-%.2f)" ratio r_lo r_hi);
        e27_rows :=
          ( name, size, d_us, p_us, d_max, p_max, pages, !verified,
            (d_range, p_range, (ratio, r_lo, r_hi)) )
          :: !e27_rows
      end)
    [
      ("reach_u", 10, 40, true);
      ("reach_u", 12, 40, true);
      ("semi_reach", 128, 60, true);
      ("semi_reach", 2000, 100, false);
      ("semi_reach", 10000, 100, false);
    ];
  let e27_mismatches =
    List.length
      (List.filter (fun (_, _, _, _, _, _, _, v, _) -> not v) !e27_rows)
  in
  if e27_mismatches > 0 then
    Printf.printf "  E27: %d lockstep verification failures!\n"
      e27_mismatches;
  (match
     if Array.exists (( = ) "--json") Sys.argv then Some "BENCH_paged.json"
     else Sys.getenv_opt "BENCH_PAGED_JSON"
   with
  | None -> ()
  | Some path ->
      let oc = open_out path in
      output_string oc "[\n";
      let rows = List.rev !e27_rows in
      List.iteri
        (fun i
             ( name, size, d_us, p_us, d_max, p_max, pages, verified,
               ((d_lo, d_hi), (p_lo, p_hi), _) ) ->
          Printf.fprintf oc
            "  {\"experiment\": \"E27\", \"program\": %S, \"n\": %d, \
             \"repeats\": %d, \"dense_us\": %.3f, \"paged_us\": %.3f, \
             \"dense_range_us\": [%.3f, %.3f], \"paged_range_us\": [%.3f, \
             %.3f], \"dense_max_us\": %.1f, \"paged_max_us\": %.1f, \
             \"pages\": %d, \"verified\": %b}%s\n"
            name size e27_repeats d_us p_us d_lo d_hi p_lo p_hi d_max p_max
            pages verified
            (if i = List.length rows - 1 then "" else ","))
        rows;
      output_string oc "]\n";
      close_out oc;
      Printf.printf "  wrote %s (%d rows)\n" path (List.length rows));
  if Array.exists (( = ) "--gate") Sys.argv then begin
    (* gate at the largest n overall: that is the regime the page table
       exists for — at smoke sizes the flat array is at worst a close
       race and stays informational. Same 15% tolerance as E25: the
       inequality to protect is asymptotic, not a photo finish. The
       gated figure is the median of the per-repeat paged/dense
       ratios. *)
    let tolerance = 1.15 in
    let largest =
      List.fold_left (fun acc (_, sz, _, _, _, _, _, _, _) -> max acc sz) 0
        !e27_rows
    in
    let at_largest =
      List.filter (fun (_, size, _, _, _, _, _, _, _) -> size = largest)
        !e27_rows
    in
    let failed = ref false in
    List.iter
      (fun (name, size, d_us, p_us, _, _, _, verified, (_, _, (r, lo, hi))) ->
        let fail = (not verified) || r > tolerance in
        if fail then failed := true;
        Printf.printf
          "  E27 gate %s: %s n=%d paged/dense ratio median %.2f (range \
           %.2f-%.2f, bound %.2f); paged %.2f us, dense %.2f us%s\n"
          (if fail then "FAIL" else "cell")
          name size r lo hi tolerance p_us d_us
          (if verified then "" else " (lockstep mismatch)"))
      at_largest;
    if e27_mismatches > 0 || !failed then exit 1;
    Printf.printf
      "  E27 gate: paged <= dense at n=%d (median of %d per-repeat ratios), \
       all cells verified — ok\n"
      largest e27_repeats
  end;

  (* E24: commute-aware serving — the statically verified commutation
     laws ([analyze --commute]) exploited by the session queue. Requests
     of ops with a verified redundant-request no-op law that provably do
     not change the input are elided; back-to-back duplicates of
     verified-idempotent ops are deduped before the tick; the batch
     planner groups transposable requests so the delta backend pays one
     dirty-mask build per group. FIFO mode pushes the identical workload
     through the same wire path under the null oracle — the measurable
     baseline. Workloads get seeded back-to-back duplicates injected
     (~25%) to model retry/at-least-once submitters, and a second
     connection issues program queries throughout (each answered
     individually, exercising the worker's hoist bookkeeping). Every
     run's final answer is cross-checked against an offline sequential
     replay of the same duplicate-injected request list. 1-core caveat:
     client, query thread and server worker share the core, so absolute
     upd/s is conservative — the fifo/commute ratio is the signal. *)
  Printf.printf
    "\n== E24: commute-aware serving — fifo vs commute coalescing ==\n";
  let e24_rows = ref [] in
  let e24_mismatches = ref 0 in
  let sock24 =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "dynfo_bench_e24_%d.sock" (Unix.getpid ()))
  in
  let server24 =
    Thread.create
      (fun () ->
        ignore
          (Dynfo_server.Server.run
             {
               Dynfo_server.Server.addr = `Unix sock24;
               lanes = Some 1;
               find_program =
                 (fun name ->
                   match Registry.find name with
                   | e -> Some e.Registry.program
                   | exception Not_found -> None);
             }))
      ()
  in
  let rec connect24 tries =
    match Dynfo_server.Client.connect (`Unix sock24) with
    | c -> c
    | exception Unix.Unix_error ((Unix.ECONNREFUSED | Unix.ENOENT), _, _)
      when tries > 0 ->
        Thread.delay 0.05;
        connect24 (tries - 1)
  in
  let client24 = connect24 100 in
  let inject_dups rng reqs =
    List.concat_map
      (fun r -> if Random.State.float rng 1.0 < 0.25 then [ r; r ] else [ r ])
      reqs
  in
  Printf.printf "  %-10s %8s %10s %13s %7s %7s %8s %8s\n" "program" "mode"
    "upd/s" "step-p99(us)" "groups" "elided" "deduped" "hoisted";
  List.iter
    (fun (name, size, length) ->
      let e = reg name in
      let rng = Random.State.make [| 24; size |] in
      let reqs = inject_dups rng (e.workload rng ~size ~length) in
      let offline =
        Runner.query (Runner.run (Runner.init e.program ~size) reqs)
      in
      List.iter
        (fun coalesce ->
          let session =
            Dynfo_server.Client.create client24 ~backend:`Tuple ~coalesce
              ~program:name ~size ()
          in
          let stop = Atomic.make false in
          let qthread =
            Thread.create
              (fun () ->
                let qc = connect24 100 in
                while not (Atomic.get stop) do
                  ignore (Dynfo_server.Client.query qc ~session []);
                  Thread.yield ()
                done;
                Dynfo_server.Client.close qc)
              ()
          in
          let r = Dynfo_server.Loadgen.drive client24 ~session ~batch:16 reqs in
          Atomic.set stop true;
          Thread.join qthread;
          let stats = Dynfo_server.Client.stats client24 ~session in
          Dynfo_server.Client.destroy client24 ~session;
          if r.Dynfo_server.Loadgen.lg_final <> offline then begin
            incr e24_mismatches;
            Printf.printf
              "  MISMATCH: %s coalesce=%s served %b, offline %b\n" name
              (Dynfo_server.Wire.coalesce_to_string coalesce)
              r.Dynfo_server.Loadgen.lg_final offline
          end;
          let open Dynfo_server.Loadgen in
          Printf.printf "  %-10s %8s %10.0f %13.1f %7d %7d %8d %8d\n" name
            (Dynfo_server.Wire.coalesce_to_string coalesce)
            r.lg_ups r.lg_step_p99_us stats.Dynfo_server.Client.groups
            stats.Dynfo_server.Client.elided stats.Dynfo_server.Client.deduped
            stats.Dynfo_server.Client.hoisted;
          e24_rows := (name, size, coalesce, r, stats) :: !e24_rows)
        [ `Fifo; `Commute ])
    [ ("parity", 64, 384); ("reach_u", 8, 192); ("matching", 8, 192) ];
  Dynfo_server.Client.shutdown client24;
  Dynfo_server.Client.close client24;
  Thread.join server24;
  if !e24_mismatches > 0 then
    Printf.printf "  E24: %d served/offline answer mismatches!\n"
      !e24_mismatches
  else Printf.printf "  (every served answer matches the offline replay)\n";
  (match
     if Array.exists (( = ) "--json") Sys.argv then Some "BENCH_commute.json"
     else Sys.getenv_opt "BENCH_COMMUTE_JSON"
   with
  | None -> ()
  | Some path ->
      let oc = open_out path in
      output_string oc "[\n";
      Printf.fprintf oc
        "  {\"experiment\": \"E24-calibration\", \"measured\": \
         {\"setup_us\": %.2f, \"retest_us\": %.2f, \"full_tuple_us\": \
         %.3f}, \"checked_in\": %s},\n"
        cal_mask cal_retest cal_full
        (Json.to_string (Dynfo_analysis.Calibration.to_json default));
      let rows = List.rev !e24_rows in
      List.iteri
        (fun i (name, size, coalesce, r, stats) ->
          let open Dynfo_server.Loadgen in
          Printf.fprintf oc
            "  {\"experiment\": \"E24\", \"program\": %S, \"n\": %d, \
             \"coalesce\": %S, \"batch\": 16, \"updates\": %d, \
             \"updates_per_s\": %.1f, \"p50_us\": %.1f, \"p99_us\": %.1f, \
             \"step_p99_us\": %.1f, \"work\": %d, \"groups\": %d, \
             \"elided\": %d, \"deduped\": %d, \"hoisted\": %d, \"final\": \
             %b}%s\n"
            name size
            (Dynfo_server.Wire.coalesce_to_string coalesce)
            r.lg_updates r.lg_ups r.lg_p50_us r.lg_p99_us r.lg_step_p99_us
            r.lg_work stats.Dynfo_server.Client.groups
            stats.Dynfo_server.Client.elided
            stats.Dynfo_server.Client.deduped
            stats.Dynfo_server.Client.hoisted r.lg_final
            (if i = List.length rows - 1 then "" else ","))
        rows;
      output_string oc "]\n";
      close_out oc;
      Printf.printf "  wrote %s (%d rows)\n" path (List.length rows + 1));

  (* E13: REACH_d through the bfo reduction + transfer theorem *)
  Printf.printf "\n== E13: REACH_d via bfo reduction (Example 2.1 + Prop 5.3) ==\n";
  header ();
  List.iter
    (fun size ->
      let rng = Random.State.make [| 42; size |] in
      let reqs = Dynfo_reductions.Reach_d_to_u.workload rng ~size ~length:60 in
      let via = us_per_request Dynfo_reductions.Transfer.reach_d ~size reqs in
      let static =
        us_per_request
          (Dyn.static ~name:"reach_d-static"
             ~input_vocab:Dynfo_reductions.Reach_d_to_u.graph_vocab
             ~symmetric_rels:[] ~oracle:Dynfo_reductions.Reach_d_to_u.oracle)
          ~size reqs
      in
      row ~size ~fo:(Some via) ~native:None ~static:(Some static) ~work:None)
    [ 5; 7; 9 ];

  (* E14: measured expansion of I_{d-u} (Definition 5.1) *)
  Printf.printf "\n== E14: expansion of I_{d-u} (Definition 5.1) ==\n";
  Printf.printf "  %6s %18s %18s\n" "n" "max edge-req exp" "max set-req exp";
  List.iter
    (fun size ->
      let rng = Random.State.make [| 7; size |] in
      let reqs = Dynfo_reductions.Reach_d_to_u.workload rng ~size ~length:150 in
      let st =
        ref
          (Dynfo_logic.Structure.create ~size
             Dynfo_reductions.Reach_d_to_u.graph_vocab)
      in
      let edge_max = ref 0 and set_max = ref 0 in
      List.iter
        (fun r ->
          let e =
            Dynfo_reductions.Expansion.expansion_of_request
              Dynfo_reductions.Reach_d_to_u.interpretation !st r
          in
          (match r with
          | Request.Set _ -> set_max := max !set_max e
          | _ -> edge_max := max !edge_max e);
          st := Dynfo_reductions.Expansion.apply_request !st r)
        reqs;
      Printf.printf "  %6d %18d %18d\n" size !edge_max !set_max)
    [ 6; 10; 14; 18 ];
  print_endline "  (bounded in n: the reduction is bounded-expansion)";

  (* --- Bechamel micro-benchmarks: one Test per experiment -------------- *)
  print_endline "\n== Bechamel micro-benchmarks (one Test.make per experiment) ==";
  let open Bechamel in
  let replay (d : Dyn.t) ~size reqs =
    Staged.stage (fun () ->
        let inst = d.create size () in
        List.iter
          (fun r ->
            inst.apply r;
            ignore (inst.query ()))
          reqs)
  in
  let tests =
    List.filter_map
      (fun (id, name, sz, len) ->
        match Registry.find name with
        | e ->
            let rng = Random.State.make [| 13; sz |] in
            let reqs = e.workload rng ~size:sz ~length:len in
            if reqs = [] then None
            else
              Some
                (Test.make
                   ~name:(Printf.sprintf "%s_%s_fo_n%d" id name sz)
                   (replay (Dyn.of_program e.program) ~size:sz reqs))
        | exception Not_found -> None)
      [
        ("e1", "parity", 64, 50);
        ("e2", "reach_u", 7, 30);
        ("e3", "reach_acyclic", 8, 30);
        ("e4", "trans_reduction", 7, 30);
        ("e5", "msf", 6, 30);
        ("e6", "bipartite", 6, 30);
        ("e7", "k_edge_1", 5, 15);
        ("e8", "matching", 8, 30);
        ("e9", "lca", 8, 30);
        ("e10", "regular", 10, 30);
        ("e11", "mult", 10, 30);
        ("e12", "dyck_2", 9, 30);
        ("e15", "pad_reach_a", 5, 5);
      ]
  in
  let benchmark test =
    let quota = Time.second 0.25 in
    Benchmark.all (Benchmark.cfg ~limit:500 ~quota ~kde:None ())
      Toolkit.Instance.[ monotonic_clock ]
      test
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  List.iter
    (fun t ->
      let results = benchmark t in
      let results =
        Analyze.all ols Toolkit.Instance.monotonic_clock results
      in
      Hashtbl.iter
        (fun name ols_result ->
          match Analyze.OLS.estimates ols_result with
          | Some [ est ] ->
              Printf.printf "  %-28s %12.0f ns/replay\n" name est
          | _ -> Printf.printf "  %-28s (no estimate)\n" name)
        results)
    tests;
  print_endline "\nbench suite complete"
