(* The serving subsystem (lib/server): JSON codec round trips (QCheck),
   wire protocol encode/decode for every op, snapshot encode/decode with
   corruption rejection, snapshot -> restore -> lockstep-continue with
   identical answers and work counts, the batch == singleton-sequence
   oracle over the whole registry on all four backends, session
   coalescing under concurrent submitters, and the daemon end-to-end
   over a real Unix socket. *)

open Dynfo_logic
open Dynfo
open Dynfo_programs
open Dynfo_server

let check = Alcotest.check
let tb = Alcotest.bool
let ti = Alcotest.int
let ts = Alcotest.string

(* --- JSON ------------------------------------------------------------------ *)

(* Floats from a small decimal grid so that the %.12g printing round
   trips exactly; full-precision doubles would need 17 digits. *)
let json_gen =
  let open QCheck.Gen in
  let scalar =
    oneof
      [
        return Json.Null;
        map (fun b -> Json.Bool b) bool;
        map (fun i -> Json.Int i) int;
        map (fun i -> Json.Float (float_of_int i /. 8.)) (int_range (-8000) 8000);
        map (fun s -> Json.Str s) (string_size ~gen:char (int_bound 12));
      ]
  in
  sized
  @@ fix (fun self n ->
         if n = 0 then scalar
         else
           frequency
             [
               (3, scalar);
               (1, map (fun l -> Json.List l) (list_size (int_bound 4) (self (n / 2))));
               ( 1,
                 map
                   (fun l -> Json.Obj l)
                   (list_size (int_bound 4)
                      (pair (string_size ~gen:char (int_bound 6)) (self (n / 2)))) );
             ])

let json_roundtrip =
  QCheck.Test.make ~name:"Json.parse inverts Json.to_string" ~count:500
    (QCheck.make json_gen)
    (fun v ->
      match Json.parse (Json.to_string v) with
      | Ok v' when v' = v -> true
      | Ok v' ->
          QCheck.Test.fail_reportf "reparsed %s as %s" (Json.to_string v)
            (Json.to_string v')
      | Error msg ->
          QCheck.Test.fail_reportf "failed to reparse %s: %s"
            (Json.to_string v) msg)

let test_json_cases () =
  let ok s v =
    match Json.parse s with
    | Ok v' -> check tb (Printf.sprintf "parse %s" s) true (v = v')
    | Error msg -> Alcotest.failf "parse %s failed: %s" s msg
  in
  let bad s =
    match Json.parse s with
    | Ok _ -> Alcotest.failf "parse %s should have failed" s
    | Error _ -> ()
  in
  ok "null" Json.Null;
  ok " [ 1 , -2 ,3.5, \"a\" ] "
    (Json.List [ Json.Int 1; Json.Int (-2); Json.Float 3.5; Json.Str "a" ]);
  ok "{\"a\":true,\"b\":{}}"
    (Json.Obj [ ("a", Json.Bool true); ("b", Json.Obj []) ]);
  ok "\"\\u0041\\n\\t\\\\\"" (Json.Str "A\n\t\\");
  (* surrogate pair and 2-byte code point decode to UTF-8 *)
  ok "\"\\u00e9\\ud83d\\ude00\"" (Json.Str "\xc3\xa9\xf0\x9f\x98\x80");
  ok "1e3" (Json.Float 1000.);
  bad "";
  bad "tru";
  bad "[1,]";
  bad "{\"a\":}";
  bad "\"unterminated";
  bad "\"\\x\"";
  bad "\"\\ud800\"";
  bad "1 2";
  bad "{\"a\" 1}";
  (* the printer never emits raw newlines: one value = one wire line *)
  check tb "no raw newline in printed string" false
    (String.contains (Json.to_string (Json.Str "a\nb\x01")) '\n')

(* --- wire ------------------------------------------------------------------ *)

let test_wire_roundtrip () =
  let cmds : Wire.cmd list =
    [
      Wire.Hello;
      Wire.Create
        {
          session = None;
          program = "reach_u";
          size = 8;
          backend = `Auto;
          engine = `Seq;
          coalesce = `Commute;
        };
      Wire.Create
        {
          session = Some "mine";
          program = "parity";
          size = 16;
          backend = `Delta;
          engine = `Par;
          coalesce = `Fifo;
        };
      Wire.Attach { session = "s1" };
      Wire.Destroy { session = "s1" };
      Wire.Update
        {
          session = "s1";
          reqs = [ Request.ins "E" [ 0; 1 ]; Request.del "E" [ 2; 3 ];
                   Request.set "s" 4 ];
        };
      Wire.Query { session = "s1"; name = None; args = [] };
      Wire.Query { session = "s1"; name = Some "reach"; args = [ 0; 2 ] };
      Wire.Snapshot { session = "s1"; path = "/tmp/x.snap" };
      Wire.Restore
        {
          session = None;
          path = "/tmp/x.snap";
          backend = `Bulk;
          engine = `Seq;
          coalesce = `Commute;
        };
      Wire.Stats { session = "s1" };
      Wire.List_sessions;
      Wire.Shutdown;
    ]
  in
  List.iteri
    (fun i cmd ->
      let id = i + 1 in
      match Wire.cmd_of_line (Wire.cmd_line ~id cmd) with
      | id', Ok cmd' ->
          check ti "id" id id';
          check tb "cmd round trip" true (cmd = cmd')
      | _, Error msg -> Alcotest.failf "decode failed: %s" msg)
    cmds;
  (match Wire.cmd_of_line "{\"id\":7,\"op\":\"frobnicate\"}" with
  | 7, Error _ -> ()
  | _ -> Alcotest.fail "unknown op must decode to its id plus an error");
  (match Wire.cmd_of_line "not json" with
  | 0, Error _ -> ()
  | _ -> Alcotest.fail "garbage must fail");
  let r = Wire.ok ~id:3 [ ("applied", Json.Int 2) ] in
  (match Wire.resp_of_line (Wire.resp_line r) with
  | Ok r' -> check tb "ok resp round trip" true (r = r')
  | Error msg -> Alcotest.failf "resp decode failed: %s" msg);
  let e = Wire.error ~id:4 "boom" in
  match Wire.resp_of_line (Wire.resp_line e) with
  | Ok e' -> check tb "error resp round trip" true (e = e')
  | Error msg -> Alcotest.failf "resp decode failed: %s" msg

(* --- snapshot -------------------------------------------------------------- *)

let reach_structure ~size ~length =
  let e = Registry.find "reach_u" in
  let rng = Random.State.make [| 3 |] in
  let reqs = e.workload rng ~size ~length in
  (e, reqs, Runner.run (Runner.init e.program ~size) reqs)

let test_snapshot_roundtrip () =
  let _, _, s = reach_structure ~size:8 ~length:40 in
  let st = Runner.structure s in
  let data = Snapshot.encode ~program:"reach_u" ~steps:40 st in
  let l = Snapshot.decode data in
  check ts "program" "reach_u" l.Snapshot.snap_program;
  check ti "steps" 40 l.Snapshot.snap_steps;
  check tb "structure round trip" true
    (Structure.equal st l.Snapshot.snap_structure);
  (* dense encoding: a near-full relation must also round trip *)
  let v = Vocab.make ~rels:[ ("R", 2); ("S", 3) ] ~consts:[ "c" ] in
  let full = Structure.create ~size:16 v in
  let full = Structure.with_const full "c" 11 in
  let full =
    Structure.with_rel full "R"
      (Relation.of_list ~arity:2
         (List.concat_map
            (fun x -> List.init 16 (fun y -> [| x; y |]))
            (List.init 16 Fun.id)))
  in
  let data = Snapshot.encode ~program:"dense" ~steps:0 full in
  let l = Snapshot.decode data in
  check tb "dense structure round trip" true
    (Structure.equal full l.Snapshot.snap_structure);
  (* file round trip *)
  let path = Filename.temp_file "dynfo_test" ".snap" in
  let bytes = Snapshot.save ~path ~program:"reach_u" ~steps:7 st in
  check ti "save size" (String.length (Snapshot.encode ~program:"reach_u" ~steps:7 st)) bytes;
  let l = Snapshot.load ~path in
  check tb "file round trip" true (Structure.equal st l.Snapshot.snap_structure);
  Sys.remove path

let test_snapshot_corruption () =
  let _, _, s = reach_structure ~size:8 ~length:30 in
  let data = Snapshot.encode ~program:"reach_u" ~steps:30 (Runner.structure s) in
  let expect_corrupt what d =
    match Snapshot.decode d with
    | _ -> Alcotest.failf "%s should have been rejected" what
    | exception Snapshot.Corrupt _ -> ()
  in
  expect_corrupt "truncated file" (String.sub data 0 (String.length data - 5));
  expect_corrupt "empty file" "";
  expect_corrupt "bad magic" ("XX" ^ String.sub data 2 (String.length data - 2));
  let flip i d =
    let b = Bytes.of_string d in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x40));
    Bytes.to_string b
  in
  (* a flipped byte in the body breaks the checksum; in the trailing 8
     bytes it breaks it too *)
  expect_corrupt "flipped body byte" (flip (String.length data / 2) data);
  expect_corrupt "flipped checksum byte" (flip (String.length data - 1) data);
  (* a structurally valid but oversized declared length must not crash *)
  expect_corrupt "truncated mid-header" (String.sub data 0 14);
  (* restoring a snapshot against a program whose vocabulary it does not
     cover is rejected by Runner.restore *)
  let v = Vocab.make ~rels:[ ("Z", 1) ] ~consts:[] in
  let tiny = Structure.create ~size:4 v in
  let l = Snapshot.decode (Snapshot.encode ~program:"reach_u" ~steps:0 tiny) in
  match Runner.restore (Registry.find "reach_u").program l.Snapshot.snap_structure with
  | _ -> Alcotest.fail "restore with missing vocabulary should fail"
  | exception (Invalid_argument _ | Vocab.Unknown_symbol _) -> ()

(* snapshot -> restore -> continue in lockstep with the uninterrupted
   runner: identical answers AND identical per-step work counts, on all
   four backends *)
let test_snapshot_lockstep () =
  Dynfo_analysis.Advisor.install ();
  List.iter
    (fun (name, size, length) ->
      let e = Registry.find name in
      List.iter
        (fun backend ->
          let rng = Random.State.make [| 5 |] in
          let reqs = e.workload rng ~size ~length in
          let k = length / 2 in
          let prefix = List.filteri (fun i _ -> i < k) reqs in
          let suffix = List.filteri (fun i _ -> i >= k) reqs in
          let a = Runner.run ~backend (Runner.init e.program ~size) prefix in
          let data =
            Snapshot.encode ~program:name ~steps:(List.length prefix)
              (Runner.structure a)
          in
          let l = Snapshot.decode data in
          let b = Runner.restore e.program l.Snapshot.snap_structure in
          check tb
            (Printf.sprintf "%s restored structure equal" name)
            true
            (Structure.equal (Runner.structure a) (Runner.structure b));
          let sa = ref a and sb = ref b in
          List.iter
            (fun req ->
              let a', wa = Runner.step_work ~backend !sa req in
              let b', wb = Runner.step_work ~backend !sb req in
              sa := a';
              sb := b';
              check ti (Printf.sprintf "%s lockstep work" name) wa wb;
              check tb
                (Printf.sprintf "%s lockstep answer" name)
                (Runner.query !sa) (Runner.query !sb))
            suffix)
        ([ `Tuple; `Bulk; `Delta; `Auto ] : Runner.backend list))
    [ ("reach_u", 7, 40); ("parity", 20, 40); ("lca", 7, 30) ]

(* --- batch == singleton sequence (the serving layer's oracle) -------------- *)

let batch_equals_singletons =
  QCheck.Test.make
    ~name:"step_batch == singleton fold on every registry program x backend"
    ~count:8
    QCheck.(pair (int_range 0 1000000) (int_range 1 6))
    (fun (seed, chunk) ->
      Dynfo_analysis.Advisor.install ();
      List.iter
        (fun (e : Registry.entry) ->
          let size = e.default_size in
          let rng = Random.State.make [| seed |] in
          let reqs = e.workload rng ~size ~length:10 in
          let rec chunks = function
            | [] -> []
            | l ->
                let k = min chunk (List.length l) in
                List.filteri (fun i _ -> i < k) l
                :: chunks (List.filteri (fun i _ -> i >= k) l)
          in
          List.iter
            (fun backend ->
              let singles = Runner.run ~backend (Runner.init e.program ~size) reqs in
              let batched =
                List.fold_left
                  (Runner.step_batch ~backend)
                  (Runner.init e.program ~size)
                  (chunks reqs)
              in
              if
                not
                  (Structure.equal
                     (Runner.structure singles)
                     (Runner.structure batched))
              then
                QCheck.Test.fail_reportf
                  "batch mismatch: %s backend %s chunk %d seed %d" e.name
                  (match backend with
                  | `Tuple -> "tuple"
                  | `Bulk -> "bulk"
                  | `Delta -> "delta"
                  | `Auto -> "auto")
                  chunk seed)
            ([ `Tuple; `Bulk; `Delta; `Auto ] : Runner.backend list))
        Registry.all;
      true)

let test_batch_atomicity () =
  let e = Registry.find "reach_u" in
  let s = Runner.init e.program ~size:6 in
  let bad =
    [ Request.ins "E" [ 0; 1 ]; Request.ins "E" [ 0; 99 ] ]
    (* second member out of range *)
  in
  match Runner.step_batch s bad with
  | _ -> Alcotest.fail "invalid batch member must reject the batch"
  | exception Invalid_argument _ ->
      (* nothing ran: the pre-state still answers like the empty one *)
      check tb "state untouched" true
        (Structure.equal (Runner.structure s)
           (Runner.structure (Runner.init e.program ~size:6)))

let test_par_batch () =
  let e = Registry.find "reach_u" in
  let rng = Random.State.make [| 9 |] in
  let reqs = e.workload rng ~size:7 ~length:24 in
  Dynfo_engine.Pool.with_pool ~lanes:2 (fun pool ->
      let seq = Runner.run (Runner.init e.program ~size:7) reqs in
      let par = Runner.step_batch (Runner.init ~pool e.program ~size:7) reqs in
      check tb "par batch answers" (Runner.query seq) (Runner.query par);
      check tb "par batch structures" true
        (Structure.equal (Runner.structure seq) (Runner.structure par)))

(* --- sessions -------------------------------------------------------------- *)

(* Concurrent submitters on one session. Distinct insert-only requests
   commute, and parity's auxiliary state is a pure function of the input
   set (unlike e.g. reach_u's, which is history-dependent: different
   interleavings build different — equally valid — auxiliary relations),
   so the final structure must equal an offline replay regardless of how
   the threads' updates interleaved. Ticks never exceed steps; with
   several threads racing one worker some coalescing is likely, but
   scheduling makes that unassertable. *)
let test_session_concurrent () =
  let e = Registry.find "parity" in
  let size = 16 in
  let elems = List.init 12 Fun.id in
  let sess =
    Session.create ~id:"t" ~name:"parity" ~backend:`Delta e.program ~size
  in
  let per_thread = 3 in
  let slices =
    List.init per_thread (fun k ->
        List.filteri (fun i _ -> i mod per_thread = k) elems)
  in
  let threads =
    List.map
      (fun slice ->
        Thread.create
          (fun () ->
            List.iter
              (fun a -> ignore (Session.update sess [ Request.ins "M" [ a ] ]))
              slice)
          ())
      slices
  in
  List.iter Thread.join threads;
  let st = Session.stats sess in
  check ti "all steps applied" (List.length elems) st.Session.st_steps;
  check tb "ticks <= steps" true (st.Session.st_ticks <= st.Session.st_steps);
  let offline =
    Runner.run
      (Runner.init e.program ~size)
      (List.map (fun a -> Request.ins "M" [ a ]) elems)
  in
  check tb "concurrent result == offline replay" true
    (Structure.equal (Runner.structure offline) (Session.structure sess));
  (* invalid batches are rejected without killing the worker *)
  (match Session.update sess [ Request.ins "M" [ 99 ] ] with
  | _ -> Alcotest.fail "invalid update must raise"
  | exception Invalid_argument _ -> ());
  check tb "session still answers" (Runner.query offline)
    (Session.query sess []);
  Session.close sess;
  match Session.update sess [ Request.ins "M" [ 0 ] ] with
  | _ -> Alcotest.fail "closed session must reject"
  | exception Invalid_argument _ -> ()

(* --- commute coalescing ----------------------------------------------------- *)

(* queue-drain dedupe of identical back-to-back updates, and the batch
   law behind it: the coalesced tick must be equivalent to the
   submitted order, duplicates included *)
let test_session_dedupe () =
  Dynfo_analysis.Advisor.install ();
  Dynfo_analysis.Commute.install ();
  let e = Registry.find "parity" in
  let size = 8 in
  let batch =
    [
      Request.ins "M" [ 0 ]; Request.ins "M" [ 0 ]; Request.ins "M" [ 1 ];
      Request.ins "M" [ 1 ]; Request.del "M" [ 0 ]; Request.del "M" [ 0 ];
      Request.ins "M" [ 2 ];
    ]
  in
  let sess =
    Session.create ~id:"d" ~name:"parity" ~backend:`Tuple e.program ~size
  in
  let applied, _ = Session.update sess batch in
  check ti "whole batch acknowledged" (List.length batch) applied;
  let st = Session.stats sess in
  check ti "steps count submitted requests" (List.length batch)
    st.Session.st_steps;
  check ti "back-to-back duplicates collapsed" 3 st.Session.st_deduped;
  let offline = Runner.run (Runner.init e.program ~size) batch in
  check tb "dedupe preserves the state" true
    (Structure.equal (Runner.structure offline) (Session.structure sess));
  Session.close sess;
  (* fifo mode: the same exchange exploits no law *)
  let fifo =
    Session.create ~id:"f" ~name:"parity" ~backend:`Tuple ~coalesce:`Fifo
      e.program ~size
  in
  ignore (Session.update fifo batch);
  let st = Session.stats fifo in
  check ti "fifo dedupes nothing" 0 st.Session.st_deduped;
  check ti "fifo elides nothing" 0 st.Session.st_elided;
  check tb "fifo reaches the same state" true
    (Structure.equal (Runner.structure offline) (Session.structure fifo));
  Session.close fifo

(* A [`Par] session runs the very same batch pipeline as a [`Seq] one:
   the same answers and the same planning statistics, in both drain
   modes — including elision of verified no-ops, [`Fifo]'s null oracle
   and the defchange verdicts. *)
let test_session_par_matches_seq () =
  Dynfo_analysis.Advisor.install ();
  Dynfo_analysis.Commute.install ();
  Dynfo_analysis.Defchange.install ();
  Fun.protect ~finally:(fun () ->
      Runner.set_defchange_oracle (fun _ _ _ -> `Fold))
  @@ fun () ->
  let e = Registry.find "parity" in
  let size = 8 in
  let ins a = Request.ins "M" [ a ] and del a = Request.del "M" [ a ] in
  let batches =
    [
      [ ins 0; ins 0; ins 1; del 2; ins 3 ];
      [ del 0; del 0; ins 1; ins 4; del 3 ];
      [ ins 5; del 5; ins 5; ins 6; del 1 ];
    ]
  in
  Dynfo_engine.Pool.with_pool ~lanes:2 (fun pool ->
      List.iter
        (fun (mode, coalesce) ->
          let run ?pool id =
            let s =
              Session.create ~id ~name:"parity" ?pool ~backend:`Delta
                ~coalesce e.program ~size
            in
            let answers =
              List.map
                (fun b ->
                  ignore (Session.update s b);
                  Session.query s [])
                batches
            in
            let r = (answers, Session.structure s, Session.stats s) in
            Session.close s;
            r
          in
          let seq_answers, seq_st, seq = run "seq" in
          let par_answers, par_st, par = run ~pool "par" in
          check (Alcotest.list tb) (mode ^ ": answers") seq_answers
            par_answers;
          check tb (mode ^ ": structures") true (Structure.equal seq_st par_st);
          check tb (mode ^ ": the tick was planned") true
            (seq.Session.st_groups > 0);
          List.iter
            (fun (what, f) ->
              check ti (Printf.sprintf "%s: %s" mode what) (f seq) (f par))
            [
              ("groups", fun st -> st.Session.st_groups);
              ("elided", fun st -> st.Session.st_elided);
              ("absorbed", fun st -> st.Session.st_absorbed);
              ("deduped", fun st -> st.Session.st_deduped);
            ])
        [ ("commute", `Commute); ("fifo", `Fifo) ])

(* A [`Fifo] session warms the oracles at creation, as a [`Commute] one
   does: its ticks ignore the commute oracle but still consult the
   installed Defchange one, so a cold matrix would otherwise be
   model-checked inside the first client's update. *)
let test_session_fifo_warms_oracles () =
  let consulted = ref 0 in
  Runner.set_defchange_oracle (fun _ _ _ ->
      incr consulted;
      `Fold);
  Fun.protect ~finally:(fun () ->
      Runner.set_defchange_oracle (fun _ _ _ -> `Fold))
  @@ fun () ->
  let e = Registry.find "parity" in
  let s =
    Session.create ~id:"w" ~name:"parity" ~backend:`Tuple ~coalesce:`Fifo
      e.program ~size:8
  in
  let at_creation = !consulted in
  ignore (Session.update s [ Request.ins "M" [ 0 ] ]);
  Session.close s;
  check tb "defchange oracle consulted before the first update" true
    (at_creation > 0)

(* A session resolves its drain's commute oracle once, when it is made:
   a [`Fifo] session never consults it, a [`Commute] one consults it at
   creation and on no drain after. *)
let test_session_drain_oracle_once () =
  let consulted = ref 0 in
  Runner.set_commute_oracle (fun _ ->
      incr consulted;
      Runner.null_oracle);
  Fun.protect ~finally:(fun () ->
      Runner.set_commute_oracle (fun _ -> Runner.null_oracle))
  @@ fun () ->
  let e = Registry.find "parity" in
  let consults coalesce =
    consulted := 0;
    let s =
      Session.create ~id:"o" ~name:"parity" ~backend:`Tuple ~coalesce
        e.program ~size:8
    in
    let at_creation = !consulted in
    List.iter
      (fun a ->
        ignore (Session.update s [ Request.ins "M" [ a ] ]);
        ignore (Session.query s []))
      [ 0; 1; 2 ];
    Session.close s;
    (at_creation, !consulted)
  in
  let tii = Alcotest.pair ti ti in
  check tii "fifo: never" (0, 0) (consults `Fifo);
  check tii "commute: once, at creation" (1, 1) (consults `Commute)

(* two independent input relations feeding disjoint auxiliaries, with a
   named query per side: updates on one side are provably invisible to
   the other side's query, so the commute drain may let them overtake
   pending queries — under concurrent query hammering the state must
   still equal the offline replay and every query must be answered *)
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

let test_session_mixed_traffic () =
  Dynfo_analysis.Advisor.install ();
  Dynfo_analysis.Commute.install ();
  let size = 8 in
  let sess =
    Session.create ~id:"h" ~name:"two-sub" ~backend:`Tuple two_sub ~size
  in
  let stop = Atomic.make false in
  let qthreads =
    List.map
      (fun q ->
        Thread.create
          (fun () ->
            while not (Atomic.get stop) do
              ignore (Session.query sess ~name:q []);
              Thread.yield ()
            done)
          ())
      [ "qr"; "qs" ]
  in
  let reqs =
    List.concat_map
      (fun i -> [ Request.ins "R" [ i mod size ]; Request.ins "S" [ (i + 3) mod size ] ])
      (List.init 40 Fun.id)
  in
  List.iter (fun r -> ignore (Session.update sess [ r ])) reqs;
  Atomic.set stop true;
  List.iter Thread.join qthreads;
  let offline = Runner.run (Runner.init two_sub ~size) reqs in
  check tb "mixed traffic state == offline replay" true
    (Structure.equal (Runner.structure offline) (Session.structure sess));
  check tb "settled answer" (Runner.query offline) (Session.query sess []);
  let st = Session.stats sess in
  check ti "all steps applied" (List.length reqs) st.Session.st_steps;
  check tb "hoist counter is sane" true
    (st.Session.st_hoisted >= 0 && st.Session.st_hoisted <= st.Session.st_steps);
  Session.close sess

(* Two sessions updated at once from two threads: each session's
   [stats.work] equals its total when run alone, because every tick
   meters a counter of its own. *)
let test_session_work_alone () =
  Dynfo_analysis.Advisor.install ();
  let e = Registry.find "reach_u" in
  let size = 10 in
  let drive seed () =
    let reqs = e.workload (Random.State.make [| seed |]) ~size ~length:300 in
    let s =
      Session.create ~id:(string_of_int seed) ~name:"reach_u" ~backend:`Delta
        e.program ~size
    in
    List.iter (fun r -> ignore (Session.update s [ r ])) reqs;
    let work = (Session.stats s).Session.st_work in
    Session.close s;
    work
  in
  let seeds = [ 1; 2 ] in
  let solo = List.map (fun seed -> drive seed ()) seeds in
  let together = Array.make (List.length seeds) 0 in
  List.mapi
    (fun i seed -> Thread.create (fun () -> together.(i) <- drive seed ()) ())
    seeds
  |> List.iter Thread.join;
  check (Alcotest.list ti) "each session's work equals its solo total" solo
    (Array.to_list together)

(* --- end to end over a Unix socket ----------------------------------------- *)

let with_server f =
  let sock =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "dynfo_test_%d.sock" (Unix.getpid ()))
  in
  let find_program name =
    match Registry.find name with
    | e -> Some e.Registry.program
    | exception Not_found -> None
  in
  let server_thread =
    Thread.create
      (fun () ->
        ignore
          (Server.run { Server.addr = `Unix sock; lanes = Some 2; find_program }))
      ()
  in
  let rec connect tries =
    match Client.connect (`Unix sock) with
    | c -> c
    | exception Unix.Unix_error ((Unix.ECONNREFUSED | Unix.ENOENT), _, _)
      when tries > 0 ->
        Thread.delay 0.05;
        connect (tries - 1)
  in
  let client = connect 100 in
  Fun.protect
    ~finally:(fun () ->
      (try Client.shutdown client with Failure _ -> ());
      Client.close client;
      Thread.join server_thread)
    (fun () -> f client)

let test_daemon_end_to_end () =
  Dynfo_analysis.Advisor.install ();
  with_server (fun client ->
      let server_name, version = Client.hello client in
      check ts "server name" "dynfo" server_name;
      check ti "protocol version" Wire.version version;
      let e = Registry.find "reach_u" in
      let size = 8 in
      let rng = Random.State.make [| 21 |] in
      let reqs = e.workload rng ~size ~length:60 in
      let k = 30 in
      let prefix = List.filteri (fun i _ -> i < k) reqs in
      let suffix = List.filteri (fun i _ -> i >= k) reqs in
      let session =
        Client.create client ~backend:`Delta ~program:"reach_u" ~size ()
      in
      let applied, _work = Client.update client ~session prefix in
      check ti "applied" k applied;
      let offline_prefix = Runner.run (Runner.init e.program ~size) prefix in
      check tb "served answer after prefix" (Runner.query offline_prefix)
        (Client.query client ~session []);
      (* snapshot, restore into a second live session, continue both *)
      let path = Filename.temp_file "dynfo_e2e" ".snap" in
      let bytes = Client.snapshot client ~session ~path in
      check tb "snapshot non-empty" true (bytes > 0);
      let restored, steps = Client.restore client ~backend:`Bulk ~path () in
      check ti "restored steps" k steps;
      ignore (Client.update client ~session suffix);
      ignore (Client.update client ~session:restored suffix);
      let offline_all = Runner.run offline_prefix suffix in
      check tb "original session final answer" (Runner.query offline_all)
        (Client.query client ~session []);
      check tb "restored session final answer" (Runner.query offline_all)
        (Client.query client ~session:restored []);
      Sys.remove path;
      (* a par-engine session on the shared pool agrees too *)
      let par =
        Client.create client ~backend:`Tuple ~engine:`Par ~program:"reach_u"
          ~size ()
      in
      ignore (Client.update client ~session:par reqs);
      check tb "par session answer" (Runner.query offline_all)
        (Client.query client ~session:par []);
      (* stats and list *)
      let st = Client.stats client ~session in
      check ti "steps counted" 60 st.Client.steps;
      check tb "work counted" true (st.Client.work > 0);
      let sessions = Client.list_sessions client in
      check ti "three live sessions" 3 (List.length sessions);
      check tb "list names programs" true
        (List.for_all (fun (_, p) -> p = "reach_u") sessions);
      (* protocol-level errors: unknown session, unknown program, bad
         op, corrupt snapshot restore *)
      (match Client.query client ~session:"nope" [] with
      | _ -> Alcotest.fail "unknown session must fail"
      | exception Failure _ -> ());
      (match Client.create client ~program:"nope" ~size:4 () with
      | _ -> Alcotest.fail "unknown program must fail"
      | exception Failure _ -> ());
      let bad = Client.raw_call client "{\"id\":99,\"op\":\"nope\"}" in
      check tb "unknown op answered with ok:false" true
        (match Wire.resp_of_line bad with
        | Ok r -> (not r.Wire.r_ok) && r.Wire.r_id = 99
        | Error _ -> false);
      let corrupt_path = Filename.temp_file "dynfo_corrupt" ".snap" in
      let oc = open_out_bin corrupt_path in
      output_string oc "DYNFOSNAP1 this is not a snapshot";
      close_out oc;
      (match Client.restore client ~path:corrupt_path () with
      | _ -> Alcotest.fail "corrupt snapshot must be rejected"
      | exception Failure msg ->
          check tb "corruption named" true
            (String.length msg > 0));
      Sys.remove corrupt_path;
      Client.destroy client ~session:par;
      check ti "two sessions after destroy" 2
        (List.length (Client.list_sessions client)))

let test_loadgen () =
  Dynfo_analysis.Advisor.install ();
  with_server (fun client ->
      let e = Registry.find "parity" in
      let size = 16 in
      let rng = Random.State.make [| 2 |] in
      let reqs = e.workload rng ~size ~length:64 in
      let session = Client.create client ~program:"parity" ~size () in
      let r = Loadgen.drive client ~session ~batch:16 reqs in
      check ti "all updates applied" (List.length reqs) r.Loadgen.lg_updates;
      check ti "ceil-division calls" 4 r.Loadgen.lg_calls;
      check tb "throughput nonzero" true (r.Loadgen.lg_ups > 0.);
      check tb "latency ordered" true
        (r.Loadgen.lg_p50_us <= r.Loadgen.lg_p99_us
        && r.Loadgen.lg_p99_us <= r.Loadgen.lg_max_us);
      let offline = Runner.query (Runner.run (Runner.init e.program ~size) reqs) in
      check tb "served == offline" offline r.Loadgen.lg_final)

(* fifo and commute sessions answer identically over the wire, and the
   stats response surfaces the coalescing counters at top level and the
   process-wide delta and page counters only inside "process" *)
let test_daemon_coalesce_modes () =
  Dynfo_analysis.Advisor.install ();
  Dynfo_analysis.Commute.install ();
  with_server (fun client ->
      let e = Registry.find "parity" in
      let size = 16 in
      let rng = Random.State.make [| 8 |] in
      let base = e.workload rng ~size ~length:48 in
      (* every request submitted twice back to back: the retrying
         at-least-once submitter E24 models *)
      let reqs = List.concat_map (fun r -> [ r; r ]) base in
      let offline =
        Runner.query (Runner.run (Runner.init e.program ~size) reqs)
      in
      let run coalesce =
        let session =
          Client.create client ~coalesce ~program:"parity" ~size ()
        in
        let r = Loadgen.drive client ~session ~batch:16 reqs in
        let st = Client.stats client ~session in
        let fields = Client.call client (Wire.Stats { session }) in
        Client.destroy client ~session;
        check tb "served answer == offline replay" offline r.Loadgen.lg_final;
        check ti "steps acknowledge every submitted request"
          (List.length reqs) st.Client.steps;
        (st, fields)
      in
      let fifo, _ = run `Fifo in
      check ti "fifo exploits no law" 0 (fifo.Client.deduped + fifo.Client.elided);
      let com, fields = run `Commute in
      check tb "commute dedupes the injected duplicates" true
        (com.Client.deduped >= 48);
      check tb "stats surface planner groups" true (com.Client.groups > 0);
      let process = List.assoc_opt "process" fields in
      List.iter
        (fun k ->
          check tb (k ^ " not at top level") false (List.mem_assoc k fields);
          check tb (k ^ " under process") true
            (Option.is_some (Option.bind process (Json.member k))))
        [
          "delta_fast_hits";
          "delta_memo_hits";
          "delta_memo_misses";
          "delta_mask_builds";
          "delta_mask_reuse_hits";
          "delta_words_cleared";
          "delta_small_frontier_hits";
          "pages_allocated";
          "page_skip_hits";
        ];
      (* parity resolves to delta under [`Auto], so its ticks made the
         memo hits nonzero: Client.stats found them under "process" *)
      check tb "Client.stats reads the process counters" true
        (com.Client.delta_memo_hits > 0))

let () =
  Alcotest.run "server"
    [
      ( "json",
        [
          QCheck_alcotest.to_alcotest json_roundtrip;
          Alcotest.test_case "hand-picked cases" `Quick test_json_cases;
        ] );
      ("wire", [ Alcotest.test_case "round trips" `Quick test_wire_roundtrip ]);
      ( "snapshot",
        [
          Alcotest.test_case "encode/decode/save/load" `Quick
            test_snapshot_roundtrip;
          Alcotest.test_case "corruption rejected" `Quick
            test_snapshot_corruption;
          Alcotest.test_case "restore continues in lockstep" `Slow
            test_snapshot_lockstep;
        ] );
      ( "batch",
        [
          QCheck_alcotest.to_alcotest batch_equals_singletons;
          Alcotest.test_case "atomic rejection" `Quick test_batch_atomicity;
          Alcotest.test_case "par engine batch" `Quick test_par_batch;
        ] );
      ( "session",
        [
          Alcotest.test_case "concurrent submitters coalesce safely" `Quick
            test_session_concurrent;
          Alcotest.test_case "queue-drain dedupe batch law" `Quick
            test_session_dedupe;
          Alcotest.test_case "par sessions batch like seq ones" `Quick
            test_session_par_matches_seq;
          Alcotest.test_case "fifo sessions warm the oracles" `Quick
            test_session_fifo_warms_oracles;
          Alcotest.test_case "drain oracle resolved at create" `Quick
            test_session_drain_oracle_once;
          Alcotest.test_case "mixed update/query traffic" `Quick
            test_session_mixed_traffic;
          Alcotest.test_case "concurrent sessions: work is each one's own"
            `Quick test_session_work_alone;
        ] );
      ( "daemon",
        [
          Alcotest.test_case "end to end over a Unix socket" `Slow
            test_daemon_end_to_end;
          Alcotest.test_case "load generator" `Slow test_loadgen;
          Alcotest.test_case "fifo vs commute coalescing" `Slow
            test_daemon_coalesce_modes;
        ] );
    ]
