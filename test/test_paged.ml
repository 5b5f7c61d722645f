(* The paged bitset store (lib/logic/bitrel `Paged) and what rides on
   it: QCheck equivalence of every word kernel against the dense store
   over random op sequences and page-straddling spaces, the wire-format
   identity (a paged slab serializes byte-for-byte like the dense one),
   the whole registry stepped in lockstep with paged as the process
   default at 1/2/4 lanes, page accounting, and the snapshot size
   regression — a paged-scale relation must snapshot at O(cardinality),
   never O(tuple space). *)

open Dynfo_logic
open Dynfo
open Dynfo_programs
open Dynfo_engine

let check = Alcotest.check
let tb = Alcotest.bool
let ti = Alcotest.int

let with_repr r f =
  let old = Bitrel.default_repr () in
  Bitrel.set_default_repr r;
  Fun.protect ~finally:(fun () -> Bitrel.set_default_repr old) f

(* universe sizes that put the tuple space across >= 2 pages (a page is
   4032 codes) at every arity, so every kernel's page-boundary handling
   is exercised, not just its single-page fast path *)
let size_for = function
  | 0 -> 5
  | 1 -> 8191
  | 2 -> 89 (* 7921 codes *)
  | _ -> 17 (* 4913 codes *)

(* --- random kernel-op sequences, dense twin vs paged twin ---------------- *)

(* apply the same random mutation sequence to both stores *)
let rand_ops rng d p nops =
  let size = Bitrel.size d and arity = Bitrel.arity d in
  let len = Bitrel.length d in
  let wc = Bitrel.word_count d in
  for _ = 1 to nops do
    match Random.State.int rng 5 with
    | 0 ->
        let c = Random.State.int rng len in
        Bitrel.set_code d c;
        Bitrel.set_code p c
    | 1 ->
        let c = Random.State.int rng len in
        let t = Tuple.decode ~size ~arity c in
        Bitrel.remove d t;
        Bitrel.remove p t
    | 2 ->
        let a = Random.State.int rng len and b = Random.State.int rng len in
        let lo = min a b and hi = max a b in
        if hi > lo then begin
          Bitrel.fill_range d ~lo ~hi;
          Bitrel.fill_range p ~lo ~hi
        end
    | 3 when arity > 0 ->
        let coord = Random.State.int rng arity in
        let v = Random.State.int rng size in
        ignore (Bitrel.set_slab d [ (coord, v) ]);
        ignore (Bitrel.set_slab p [ (coord, v) ])
    | 4 ->
        let ws =
          List.init
            (1 + Random.State.int rng 5)
            (fun _ -> Random.State.int rng wc)
          |> List.sort_uniq compare
        in
        Bitrel.clear_words d ws;
        Bitrel.clear_words p ws
    | _ -> ()
  done

let codes_of b =
  let acc = ref [] in
  Bitrel.iter_codes (fun c -> acc := c :: !acc) b;
  List.rev !acc

let twins ~size ~arity rng nops =
  let d = Bitrel.create_repr `Dense ~size ~arity in
  let p = Bitrel.create_repr `Paged ~size ~arity in
  rand_ops rng d p nops;
  (d, p)

let paged_mutation_equiv =
  QCheck.Test.make ~name:"paged == dense over random op sequences"
    ~count:120
    QCheck.(pair (int_range 0 3) (int_range 0 1000000))
    (fun (arity, seed) ->
      let size = size_for arity in
      let rng = Random.State.make [| seed |] in
      let d, p = twins ~size ~arity rng 40 in
      let len = Bitrel.length d in
      let a = Random.State.int rng len and b = Random.State.int rng len in
      let lo = min a b and hi = max a b in
      Bitrel.equal d p
      && Bitrel.popcount d = Bitrel.popcount p
      && codes_of d = codes_of p
      && Bitrel.any_in d ~lo ~hi = Bitrel.any_in p ~lo ~hi
      && Bitrel.all_in d ~lo ~hi = Bitrel.all_in p ~lo ~hi
      (* the wire format does not know about pages *)
      && Bitrel.to_bytes d = Bitrel.to_bytes p
      && Bitrel.equal
           (Bitrel.of_bytes ~size ~arity (Bitrel.to_bytes p))
           d
      && Relation.equal (Bitrel.to_relation d) (Bitrel.to_relation p))

let paged_binop_equiv =
  QCheck.Test.make ~name:"binary kernels: paged/mixed == dense" ~count:60
    QCheck.(pair (int_range 0 3) (int_range 0 1000000))
    (fun (arity, seed) ->
      let size = size_for arity in
      let rng = Random.State.make [| seed; 1 |] in
      let d1, p1 = twins ~size ~arity rng 30 in
      let d2, p2 = twins ~size ~arity rng 30 in
      let wc = Bitrel.word_count d1 in
      let ok = ref true in
      List.iter
        (fun op ->
          let a = Random.State.int rng (wc + 1)
          and b = Random.State.int rng (wc + 1) in
          let word_lo = min a b and word_hi = max a b in
          let dd = Bitrel.create_repr `Dense ~size ~arity in
          let pp = Bitrel.create_repr `Paged ~size ~arity in
          let pm = Bitrel.create_repr `Paged ~size ~arity in
          Bitrel.blit_op op ~dst:dd d1 d2 ~word_lo ~word_hi;
          Bitrel.blit_op op ~dst:pp p1 p2 ~word_lo ~word_hi;
          Bitrel.blit_op op ~dst:pm d1 p2 ~word_lo ~word_hi;
          ok := !ok && Bitrel.equal dd pp && Bitrel.equal dd pm)
        [ `Union; `Inter; `Diff; `Implies; `Iff ];
      let a = Random.State.int rng (wc + 1)
      and b = Random.State.int rng (wc + 1) in
      let word_lo = min a b and word_hi = max a b in
      let dd = Bitrel.create_repr `Dense ~size ~arity in
      let pp = Bitrel.create_repr `Paged ~size ~arity in
      Bitrel.complement_into ~dst:dd d1 ~word_lo ~word_hi;
      Bitrel.complement_into ~dst:pp p1 ~word_lo ~word_hi;
      !ok && Bitrel.equal dd pp
      && Bitrel.equal (Bitrel.union d1 d2) (Bitrel.union p1 p2)
      && Bitrel.equal (Bitrel.inter d1 d2) (Bitrel.inter p1 p2)
      && Bitrel.equal (Bitrel.diff d1 d2) (Bitrel.diff p1 p2)
      && Bitrel.equal (Bitrel.complement d1) (Bitrel.complement p1)
      (* in-place: dst aliasing an operand, both stores *)
      &&
      (Bitrel.blit_op `Union ~dst:d1 d1 d2 ~word_lo:0 ~word_hi:wc;
       Bitrel.blit_op `Union ~dst:p1 p1 p2 ~word_lo:0 ~word_hi:wc;
       Bitrel.equal d1 p1))

let paged_project_equiv =
  QCheck.Test.make ~name:"project/lift: paged/mixed == dense" ~count:60
    QCheck.(pair (int_range 1 3) (int_range 0 1000000))
    (fun (arity, seed) ->
      let size = size_for arity in
      let rng = Random.State.make [| seed; 2 |] in
      let ds, ps = twins ~size ~arity rng 30 in
      let ok = ref true in
      (* project out the trailing coordinate: block = size *)
      let wc_dst =
        Bitrel.word_count (Bitrel.create_repr `Dense ~size ~arity:(arity - 1))
      in
      List.iter
        (fun q ->
          let mk r = Bitrel.create_repr r ~size ~arity:(arity - 1) in
          let dd = mk `Dense
          and pp = mk `Paged
          and pd = mk `Dense
          and dp = mk `Paged in
          Bitrel.project q ~block:size ~src:ds ~dst:dd ~word_lo:0
            ~word_hi:wc_dst;
          Bitrel.project q ~block:size ~src:ps ~dst:pp ~word_lo:0
            ~word_hi:wc_dst;
          Bitrel.project q ~block:size ~src:ps ~dst:pd ~word_lo:0
            ~word_hi:wc_dst;
          Bitrel.project q ~block:size ~src:ds ~dst:dp ~word_lo:0
            ~word_hi:wc_dst;
          ok :=
            !ok && Bitrel.equal dd pp && Bitrel.equal dd pd
            && Bitrel.equal dd dp;
          (* a partial, page-straddling word window *)
          let a = Random.State.int rng (wc_dst + 1)
          and b = Random.State.int rng (wc_dst + 1) in
          let word_lo = min a b and word_hi = max a b in
          let dd = mk `Dense and pp = mk `Paged in
          Bitrel.project q ~block:size ~src:ds ~dst:dd ~word_lo ~word_hi;
          Bitrel.project q ~block:size ~src:ps ~dst:pp ~word_lo ~word_hi;
          ok := !ok && Bitrel.equal dd pp)
        [ `Or; `And ];
      (* lift: tile an arity-(k-1) pattern across the arity-k space *)
      let pat_d, pat_p = twins ~size ~arity:(arity - 1) rng 20 in
      let ld = Bitrel.create_repr `Dense ~size ~arity in
      let lp = Bitrel.create_repr `Paged ~size ~arity in
      let lm = Bitrel.create_repr `Paged ~size ~arity in
      ignore (Bitrel.lift_pattern ~dst:ld ~pattern:pat_d);
      ignore (Bitrel.lift_pattern ~dst:lp ~pattern:pat_p);
      ignore (Bitrel.lift_pattern ~dst:lm ~pattern:pat_d);
      !ok && Bitrel.equal ld lp && Bitrel.equal ld lm)

(* --- the registry in lockstep with paged as the process default ---------- *)

let test_registry_paged_lockstep () =
  (* the `Delta impls need the advisor-installed support planner; the
     conservative default plan has no frames *)
  Dynfo_analysis.Advisor.install ();
  with_repr `Paged (fun () ->
      List.iter
        (fun lanes ->
          Pool.with_pool ~lanes (fun pool ->
              List.iter
                (fun name ->
                  let e = Registry.find name in
                  let size = min e.Registry.default_size 8 in
                  let impls =
                    [
                      Dyn.of_program e.program;
                      Dyn.of_program ~backend:`Bulk e.program;
                      Dyn.of_program ~backend:`Delta e.program;
                      Dyn.of_program ~pool ~cutoff:0 ~backend:`Bulk e.program;
                      Dyn.of_program ~pool ~cutoff:0 ~backend:`Delta
                        e.program;
                    ]
                  in
                  let rng = Random.State.make [| 3033; lanes |] in
                  let reqs = e.workload rng ~size ~length:25 in
                  match Harness.compare_all ~size impls reqs with
                  | Harness.Ok _ -> ()
                  | m ->
                      Alcotest.failf "%s at %d lanes (paged): %s" name lanes
                        (Format.asprintf "%a" Harness.pp_outcome m))
                [ "parity"; "reach_u"; "matching"; "semi_reach" ]))
        [ 1; 2; 4 ])

(* --- page accounting ------------------------------------------------------ *)

let test_page_accounting () =
  let size = 89 and arity = 2 in
  Bitrel.reset_page_counters ();
  let b = Bitrel.create_repr `Paged ~size ~arity in
  check ti "fresh store holds no pages" 0 (Bitrel.pages_resident b);
  check tb "empty occupancy" true (Bitrel.occupancy b = 0.0);
  Bitrel.add b [| 0; 0 |];
  check ti "first touch allocates one page" 1 (Bitrel.pages_resident b);
  check tb "allocation counted" true (Bitrel.pages_allocated () >= 1);
  check tb "occupancy reflects residency" true
    (Bitrel.occupancy b > 0.0 && Bitrel.occupancy b <= 1.0);
  (* a kernel over an almost-empty paged operand skips absent pages *)
  Bitrel.reset_page_counters ();
  let a = Bitrel.create_repr `Paged ~size ~arity in
  let dst = Bitrel.create_repr `Paged ~size ~arity in
  Bitrel.blit_op `Inter ~dst a b ~word_lo:0 ~word_hi:(Bitrel.word_count a);
  check tb "absent pages are skipped, not walked" true
    (Bitrel.skip_hits () > 0);
  check ti "skipping allocates nothing" 0 (Bitrel.pages_allocated ());
  (* dense stores never page *)
  let d = Bitrel.create_repr `Dense ~size ~arity in
  check ti "dense: no page table" 0 (Bitrel.page_count d);
  check tb "dense occupancy is 1" true (Bitrel.occupancy d = 1.0)

(* --- snapshots ------------------------------------------------------------ *)

let test_snapshot_paged () =
  let module Snapshot = Dynfo_server.Snapshot in
  with_repr `Paged (fun () ->
      (* paged-scale: a 10^10-bit tuple space with 100 members must take
         the sparse wire arm and stay O(cardinality) — the dense slab
         would be ~1.2 GB *)
      let v = Vocab.make ~rels:[ ("E", 2) ] ~consts:[] in
      let size = 100_000 in
      let st = ref (Structure.create ~size v) in
      for i = 0 to 99 do
        st := Structure.add_tuple !st "E" [| i; (i * 7 + 13) mod size |]
      done;
      let bytes = Snapshot.encode ~program:"snap-paged" ~steps:0 !st in
      check tb "snapshot is O(cardinality), not O(space)" true
        (String.length bytes < 100 * 64 + 4096);
      let loaded = Snapshot.decode bytes in
      check tb "sparse arm round-trips" true
        (Structure.equal loaded.Snapshot.snap_structure !st);
      (* small-and-full: the dense wire arm, written from and read back
         into paged stores *)
      let v = Vocab.make ~rels:[ ("R", 2) ] ~consts:[] in
      let size = 8 in
      let st = ref (Structure.create ~size v) in
      for x = 0 to size - 1 do
        for y = 0 to size - 1 do
          if (x + y) mod 2 = 0 then
            st := Structure.add_tuple !st "R" [| x; y |]
        done
      done;
      let bytes = Snapshot.encode ~program:"snap-dense" ~steps:3 !st in
      let loaded = Snapshot.decode bytes in
      check tb "dense arm round-trips through paged stores" true
        (Structure.equal loaded.Snapshot.snap_structure !st))

let () =
  Alcotest.run "paged"
    [
      ( "kernels",
        [
          QCheck_alcotest.to_alcotest paged_mutation_equiv;
          QCheck_alcotest.to_alcotest paged_binop_equiv;
          QCheck_alcotest.to_alcotest paged_project_equiv;
          Alcotest.test_case "page accounting" `Quick test_page_accounting;
        ] );
      ( "lockstep",
        [
          Alcotest.test_case "registry at 1/2/4 lanes, paged default" `Slow
            test_registry_paged_lockstep;
        ] );
      ( "snapshot",
        [
          Alcotest.test_case "sparse wire arm at paged scale" `Quick
            test_snapshot_paged;
        ] );
    ]
