(* The serving benchmark.

   One run spawns a fresh [dynfo_cli serve] daemon with one session
   (backend auto, engine seq, coalesce commute: what the daemon serves by
   default) and drives it from this process over two connections: a
   closed-loop writer that sends the workload's update calls back to back,
   and an open-loop reader that sends the program query on a fixed
   schedule. Every served answer is checked against the registry's static
   (recompute-from-scratch) implementation, whose answer after every
   writer-call prefix is computed before the run starts. [--trace 1] adds
   a second, traced daemon run and an in-process replay of the same
   generated calls through each layer's public functions. The last stdout
   line is the JSON result; README.md says how to read the rest. *)

open Dynfo
open Dynfo_logic
module Wire = Dynfo_server.Wire
module Json = Dynfo_server.Json
module Session = Dynfo_server.Session
module Snapshot = Dynfo_server.Snapshot
module Registry = Dynfo_programs.Registry

let now_us () = Int64.to_float (Monotonic_clock.now ()) /. 1e3

(* Calls sent in the first second warm the daemon's caches and are not
   measured. *)
let warmup_s = 1.0

(* Daemons spawned per untraced run for [setup_s]: the first serves the
   run, the others start after it, so that the trials sample the host at
   different times. *)
let setup_trials = 5

(* --- statistics ----------------------------------------------------------- *)

let rank n p = max 1 (int_of_float (Float.ceil (p /. 100. *. float n)))

type summary = {
  n : int;
  median : float;
  p99 : float;
  p99_ok : bool;  (** at least ten samples beyond the p99 *)
}

(* Nearest-rank percentiles. A p99 is reported only with at least ten
   samples beyond it. *)
let summarize_array xs =
  let a = Array.copy xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then { n; median = Float.nan; p99 = Float.nan; p99_ok = false }
  else
    {
      n;
      median = a.(rank n 50. - 1);
      p99 = a.(rank n 99. - 1);
      p99_ok = n - rank n 99. >= 10;
    }

let summarize xs = summarize_array (Array.of_list xs)

let reported_p99 s = if s.p99_ok then s.p99 else Float.nan

let pp_summary name unit s =
  Printf.printf "#   %-26s median %12.3f %-2s  p99 %s  n=%d\n" name s.median
    unit
    (if s.p99_ok then Printf.sprintf "%12.3f" s.p99 else "   (n<1000)")
    s.n

(* --- workloads ------------------------------------------------------------ *)

type workload = {
  name : string;
  program : string;  (** registry name *)
  size : int;
  chunk : Random.State.t -> size:int -> Request.t list list;
      (** the next few writer calls; one call is one wire [update] *)
  set_valued : bool;  (** calls carry set requests, whose size varies *)
  max_calls_per_s : float;
      (** calls precomputed per second of run, 1.3 to 2 times the best
          writer rate measured on a 2-core host (the reference pass costs
          time before every run); running out makes the run invalid *)
  reader_hz : float;
  snapshot_every_s : float option;
  replay_calls : int;  (** fixed replay length, so its counts repeat *)
  query_every : int;  (** the replay queries after this many calls *)
}

(* Consecutive [k]-request calls; a trailing partial call is dropped. *)
let chop k l =
  let rec go acc cur n = function
    | [] -> List.rev acc
    | x :: rest ->
        if n + 1 = k then go (List.rev (x :: cur) :: acc) [] 0 rest
        else go acc (x :: cur) (n + 1) rest
  in
  go [] [] 0 l

(* The registry generator, with back-to-back retries of a request at
   [dup_frac], as at-least-once clients send them. *)
let registry_calls program ~length ~batch ~dup_frac rng ~size =
  let e = Registry.find program in
  e.workload rng ~size ~length
  |> List.concat_map (fun r ->
         if Random.State.float rng 1.0 < dup_frac then [ r; r ] else [ r ])
  |> chop batch

(* Set-valued calls on parity's unary M: 64 listed random elements, or a
   window of 64 consecutive elements given by a range formula. *)
let setbatch_calls rng ~size =
  let listed () = List.init 64 (fun _ -> [| Random.State.int rng size |]) in
  let window () =
    let lo = Random.State.int rng (size - 64) in
    ( [ "x" ],
      Formula.And
        ( Formula.Le (Formula.Num lo, Formula.Var "x"),
          Formula.Lt (Formula.Var "x", Formula.Num (lo + 64)) ) )
  in
  let ins = listed () in
  let del = listed () in
  let ins_vars, ins_phi = window () in
  let del_vars, del_phi = window () in
  [
    [ Request.Ins_set ("M", ins) ];
    [ Request.Del_set ("M", del) ];
    [ Request.Ins_def ("M", ins_vars, ins_phi) ];
    [ Request.Del_def ("M", del_vars, del_phi) ];
  ]

let workloads =
  [
    {
      name = "parity-ingest";
      program = "parity";
      size = 4096;
      chunk = registry_calls "parity" ~length:1024 ~batch:16 ~dup_frac:0.25;
      set_valued = false;
      max_calls_per_s = 12000.;
      reader_hz = 200.;
      snapshot_every_s = None;
      replay_calls = 20000;
      query_every = 32;
    };
    {
      name = "reach-churn";
      program = "reach_u";
      size = 12;
      chunk = registry_calls "reach_u" ~length:256 ~batch:1 ~dup_frac:0.;
      set_valued = false;
      max_calls_per_s = 4000.;
      reader_hz = 200.;
      snapshot_every_s = None;
      replay_calls = 4000;
      query_every = 10;
    };
    {
      name = "parity-setbatch";
      program = "parity";
      size = 4096;
      chunk = setbatch_calls;
      set_valued = true;
      max_calls_per_s = 3500.;
      reader_hz = 200.;
      snapshot_every_s = None;
      replay_calls = 8000;
      query_every = 16;
    };
    {
      name = "semi-reach-large";
      program = "semi_reach";
      size = 12000;
      chunk = registry_calls "semi_reach" ~length:64 ~batch:1 ~dup_frac:0.;
      set_valued = false;
      max_calls_per_s = 250.;
      reader_hz = 100.;
      snapshot_every_s = Some 0.5;
      replay_calls = 400;
      query_every = 1;
    };
  ]

(* The writer's calls, generated from the seed: the same seed gives the
   same calls in the reference pass, the daemon runs and the replay. *)
let calls wl ~seed =
  let rng = Random.State.make [| seed |] in
  let q = Queue.create () in
  fun () ->
    if Queue.is_empty q then
      List.iter (fun c -> Queue.add c q) (wl.chunk rng ~size:wl.size);
    Queue.pop q

(* --- reference ------------------------------------------------------------ *)

type reference = {
  answers : bool array;  (** the query answer after the first [k] calls *)
  updates : int array;  (** singleton updates call [k] expands to *)
}

let apply_input st = function
  | Request.Ins (r, t) -> Structure.add_tuple st r t
  | Request.Del (r, t) -> Structure.del_tuple st r t
  | Request.Set (c, a) -> Structure.with_const st c a
  | _ -> invalid_arg "apply_input: unexpanded set request"

let reference wl ~seed ~cap =
  let e = Registry.find wl.program in
  let static =
    match e.static with Some d -> d | None -> failwith "no static reference"
  in
  let inst = static.Dyn.create wl.size () in
  (* the input, tracked only to size set requests against their pre-state *)
  let input = ref (Structure.create ~size:wl.size e.program.Program.input_vocab) in
  let next = calls wl ~seed in
  let answers = Array.make (cap + 1) false in
  let updates = Array.make cap 0 in
  answers.(0) <- inst.Dyn.query ();
  for k = 0 to cap - 1 do
    let call = next () in
    (* the static reference folds a set request's expansion against its
       own input, which equals [input]: expand once and feed it that *)
    let call =
      if wl.set_valued then begin
        let singles = Request.expand_batch !input call in
        input := List.fold_left apply_input !input singles;
        singles
      end
      else call
    in
    updates.(k) <- List.length call;
    List.iter inst.Dyn.apply call;
    answers.(k + 1) <- inst.Dyn.query ()
  done;
  (* free the pass's garbage now, not in the load generator's GC slices
     during the run *)
  Gc.compact ();
  { answers; updates }

(* --- the daemon ----------------------------------------------------------- *)

type conn = { ic : in_channel; oc : out_channel }

let live_pids = ref []

let send c line =
  output_string c.oc line;
  output_char c.oc '\n';
  flush c.oc

let call c ~id cmd =
  send c (Wire.cmd_line ~id cmd);
  match Wire.resp_of_line (input_line c.ic) with
  | Ok r when r.Wire.r_ok && r.Wire.r_id = id -> r.Wire.r_fields
  | Ok r -> failwith (Option.value ~default:"reply id mismatch" r.Wire.r_error)
  | Error m -> failwith m

let field conv fields k =
  match Option.bind (List.assoc_opt k fields) conv with
  | Some v -> v
  | None -> failwith ("reply without field " ^ k)

let connect ~pid path =
  let deadline = now_us () +. 60e6 in
  let rec go () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX path) with
    | () ->
        (* a reply later than this counts as a timed-out call *)
        Unix.setsockopt_float fd Unix.SO_RCVTIMEO 60.;
        { ic = Unix.in_channel_of_descr fd; oc = Unix.out_channel_of_descr fd }
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) ->
        Unix.close fd;
        if now_us () > deadline then failwith "daemon did not listen in 60 s";
        if fst (Unix.waitpid [ Unix.WNOHANG ] pid) <> 0 then
          failwith "daemon exited at start-up";
        Unix.sleepf 0.001;
        go ()
  in
  go ()

type daemon = { pid : int; sock : string; conn : conn; session : string }

(* Spawn a daemon, create the session and send the first writer call.
   The second result is [setup_s]: spawn to that call's ack. *)
let start_daemon ~daemon ~sock wl first =
  let t0 = now_us () in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let pid =
    Unix.create_process (List.hd daemon)
      (Array.of_list (daemon @ [ "serve"; "--socket"; sock ]))
      null null Unix.stderr
  in
  Unix.close null;
  live_pids := pid :: !live_pids;
  let conn = connect ~pid sock in
  let session =
    field Json.to_str
      (call conn ~id:1
         (Wire.Create
            {
              session = None;
              program = wl.program;
              size = wl.size;
              backend = `Auto;
              engine = `Seq;
              coalesce = `Commute;
            }))
      "session"
  in
  let applied =
    field Json.to_int
      (call conn ~id:2 (Wire.Update { session; reqs = first }))
      "applied"
  in
  if applied <> List.length first then failwith "first update: applied count";
  ({ pid; sock; conn; session }, (now_us () -. t0) /. 1e6)

let reap pid = live_pids := List.filter (( <> ) pid) !live_pids

let stop_daemon d =
  (try ignore (call d.conn ~id:0 Wire.Shutdown) with _ -> ());
  close_out_noerr d.conn.oc;
  let rec wait tries =
    match Unix.waitpid [ Unix.WNOHANG ] d.pid with
    | 0, _ when tries > 0 ->
        Unix.sleepf 0.01;
        wait (tries - 1)
    | 0, _ ->
        Unix.kill d.pid Sys.sigkill;
        ignore (Unix.waitpid [] d.pid)
    | _ -> ()
  in
  wait 1000;
  reap d.pid;
  if Sys.file_exists d.sock then Sys.remove d.sock

let kill_all () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
    !live_pids;
  live_pids := []

(* Peak resident set of the daemon, from its own /proc entry. *)
let vm_hwm_mb pid =
  In_channel.with_open_text (Printf.sprintf "/proc/%d/status" pid) (fun ic ->
      let rec find () =
        match In_channel.input_line ic with
        | None -> failwith "no VmHWM line"
        | Some l when String.starts_with ~prefix:"VmHWM:" l ->
            Scanf.sscanf l "VmHWM: %d kB" (fun kb -> float kb /. 1024.)
        | Some _ -> find ()
      in
      find ())

(* --- tracing -------------------------------------------------------------- *)

(* The spans one thread records, kept in flat arrays so that recording does
   not allocate: name, call (writer call [k] is [k], reader call [j] is
   [-j-1]), start and end. Each call has one root span; its other spans are
   the root's children and tile its interval. *)
type spans = {
  mutable len : int;
  mutable names : string array;
  mutable calls : int array;
  mutable t0 : float array;
  mutable t1 : float array;
}

let new_spans () = { len = 0; names = [||]; calls = [||]; t0 = [||]; t1 = [||] }

let record sp name call t0 t1 =
  if sp.len = Array.length sp.names then begin
    let grow a z = Array.append a (Array.make (max 4096 sp.len) z) in
    sp.names <- grow sp.names "";
    sp.calls <- grow sp.calls 0;
    sp.t0 <- grow sp.t0 0.;
    sp.t1 <- grow sp.t1 0.
  end;
  let i = sp.len in
  sp.names.(i) <- name;
  sp.calls.(i) <- call;
  sp.t0.(i) <- t0;
  sp.t1.(i) <- t1;
  sp.len <- i + 1

let is_root name =
  name = "writer.call" || name = "reader.call" || name = "reader.snapshot"

let iter_spans f sps =
  List.iter
    (fun sp ->
      for i = 0 to sp.len - 1 do
        f sp.names.(i) sp.calls.(i) sp.t0.(i) sp.t1.(i)
      done)
    sps

(* --- one measured run ----------------------------------------------------- *)

type run = {
  setup_s : float;
  updates_per_s : float;
  upd : summary;
  qry : summary;
  late : summary;
  rss_mb : float;
  calls : int;  (** writer calls sent *)
  attempted : int;
  failed : int;
  exhausted : bool;  (** the writer ran out of precomputed calls *)
  stats : (string * Json.t) list;  (** the session's [stats] reply *)
  t_start : float;
  spans : spans list;
}

(* Drive the serving daemon [d] for [warmup_s + seconds]: the writer on
   [d.conn] from this thread, the reader on a second connection from two
   threads (one sends on schedule, one reads replies in order). A reader
   answer passes if it equals the reference after some prefix between the
   calls acked before it was sent and the calls sent before its reply
   arrived. [inject] flips one served answer whose window holds a single
   reference value, for the self-test. *)
let measure ~traced ~inject ~seconds ~snap_path wl (r : reference) next d =
  let cap = Array.length r.updates in
  let sent = Atomic.make 1 and acked = Atomic.make 1 in
  let failed = Atomic.make 0 and injected = ref false in
  let t_start = now_us () in
  let w0 = t_start +. (warmup_s *. 1e6) in
  let w1 = w0 +. (seconds *. 1e6) in
  let rconn = connect ~pid:d.pid d.sock in
  let period = 1e6 /. wl.reader_hz in
  let snap_period = Option.map (fun s -> s *. 1e6) wl.snapshot_every_s in
  let slots =
    int_of_float (seconds *. wl.reader_hz)
    + (match wl.snapshot_every_s with
      | Some s -> int_of_float (seconds /. s)
      | None -> 0)
    + 8
  in
  (* per reader call: scheduled time, when the sender woke for it, when it
     was sent, and the writer calls acked by then *)
  let sched = Array.make slots 0. and woke = Array.make slots 0. in
  let sent_at = Array.make slots 0. and lo = Array.make slots 0 in
  let is_snap = Array.make slots false in
  let nsent = ref 0 and nrecv = ref 0 in
  (* latencies go to float arrays, which the load generator's GC does not
     scan, so that it does not stall the run *)
  let q_lat = Array.make slots 0. and nq = ref 0 in
  let wsp = new_spans () and ssp = new_spans () and rsp = new_spans () in
  let sender () =
    let next_q = ref w0 in
    let next_s =
      ref (match snap_period with Some p -> w0 +. (p /. 2.) | None -> infinity)
    in
    (try
       while Float.min !next_q !next_s < w1 && !nsent < slots do
         let j = !nsent in
         let snap = !next_s < !next_q in
         let t = if snap then !next_s else !next_q in
         if snap then next_s := !next_s +. Option.get snap_period
         else next_q := !next_q +. period;
         let wait = t -. now_us () in
         if wait > 0. then Unix.sleepf (wait /. 1e6);
         sched.(j) <- t;
         woke.(j) <- now_us ();
         is_snap.(j) <- snap;
         lo.(j) <- Atomic.get acked;
         let line =
           Wire.cmd_line ~id:(j + 1)
             (if snap then Wire.Snapshot { session = d.session; path = snap_path }
              else Wire.Query { session = d.session; name = None; args = [] })
         in
         sent_at.(j) <- now_us ();
         if traced then record ssp "wire.encode" (-j - 1) woke.(j) sent_at.(j);
         send rconn line;
         incr nsent
       done
     with _ -> ());
    (* the reply to this sentinel tells the receiver that no more come *)
    try send rconn (Wire.cmd_line ~id:0 Wire.Hello) with _ -> ()
  in
  let receiver () =
    try
      let fin = ref false in
      while not !fin do
        let line = input_line rconn.ic in
        let tr = now_us () in
        let hi = Atomic.get sent in
        let resp = Wire.resp_of_line line in
        let td = if traced then now_us () else tr in
        match resp with
        | Ok rsp when rsp.Wire.r_id = 0 -> fin := true
        | resp ->
            let j = !nrecv in
            incr nrecv;
            let fields =
              match resp with
              | Ok rsp when rsp.Wire.r_ok && rsp.Wire.r_id = j + 1 ->
                  rsp.Wire.r_fields
              | _ -> []
            in
            let get conv k = Option.bind (List.assoc_opt k fields) conv in
            let ok =
              if is_snap.(j) then
                Option.value ~default:0 (get Json.to_int "bytes") > 0
              else
                match get Json.to_bool "result" with
                | Some b ->
                    let b =
                      if
                        inject && (not !injected)
                        && Array.for_all (( = ) b)
                             (Array.sub r.answers lo.(j) (hi - lo.(j) + 1))
                      then begin
                        injected := true;
                        not b
                      end
                      else b
                    in
                    let rec any k =
                      k <= hi && (r.answers.(k) = b || any (k + 1))
                    in
                    any lo.(j)
                | None -> false
            in
            if not ok then Atomic.incr failed;
            if not is_snap.(j) then begin
              q_lat.(!nq) <- tr -. sched.(j);
              incr nq
            end;
            if traced then begin
              let c = -j - 1 in
              record rsp
                (if is_snap.(j) then "reader.snapshot" else "reader.call")
                c sched.(j) td;
              record rsp "reader.schedule_wait" c sched.(j) woke.(j);
              record rsp "client.roundtrip" c sent_at.(j) tr;
              record rsp "wire.decode" c tr td
            end
      done
    with _ -> ()
  in
  let sender_t = Thread.create sender () in
  let receiver_t = Thread.create receiver () in
  let k = ref 1 and updates = ref 0 in
  let upd_lat = Array.make cap 0. and nu = ref 0 in
  let exhausted = ref false and stop = ref false in
  (try
     while not !stop do
       if now_us () >= w1 then stop := true
       else if !k >= cap then begin
         exhausted := true;
         stop := true
       end
       else begin
         let reqs = next () in
         let id = !k + 2 in
         let tb = if traced then now_us () else 0. in
         let line =
           Wire.cmd_line ~id (Wire.Update { session = d.session; reqs })
         in
         let te = now_us () in
         Atomic.set sent (!k + 1);
         send d.conn line;
         let reply = input_line d.conn.ic in
         let ta = now_us () in
         Atomic.set acked (!k + 1);
         let ok =
           match Wire.resp_of_line reply with
           | Ok rsp ->
               rsp.Wire.r_ok && rsp.Wire.r_id = id
               && Option.bind
                    (List.assoc_opt "applied" rsp.Wire.r_fields)
                    Json.to_int
                  = Some (List.length reqs)
           | Error _ -> false
         in
         if not ok then Atomic.incr failed;
         if te >= w0 then begin
           upd_lat.(!nu) <- ta -. te;
           incr nu
         end;
         if ta >= w0 && ta < w1 then updates := !updates + r.updates.(!k);
         if traced then begin
           let td = now_us () in
           record wsp "writer.call" !k tb td;
           record wsp "wire.encode" !k tb te;
           record wsp "client.roundtrip" !k te ta;
           record wsp "wire.decode" !k ta td
         end;
         incr k
       end
     done
   with _ ->
     (* a timed-out or refused call *)
     Atomic.incr failed);
  Thread.join sender_t;
  Thread.join receiver_t;
  close_out_noerr rconn.oc;
  (* sent reader calls that never got a reply *)
  let unanswered = !nsent - !nrecv in
  let final_ok, stats =
    try
      let b =
        field Json.to_bool
          (call d.conn ~id:1
             (Wire.Query { session = d.session; name = None; args = [] }))
          "result"
      in
      (b = r.answers.(!k), call d.conn ~id:1 (Wire.Stats { session = d.session }))
    with _ -> (false, [])
  in
  let rss_mb = vm_hwm_mb d.pid in
  let failed = Atomic.get failed + unanswered + if final_ok then 0 else 1 in
  {
    setup_s = 0.;
    updates_per_s = float !updates /. seconds;
    upd = summarize_array (Array.sub upd_lat 0 !nu);
    qry = summarize_array (Array.sub q_lat 0 !nq);
    late = summarize_array (Array.init !nsent (fun j -> woke.(j) -. sched.(j)));
    rss_mb;
    calls = !k;
    attempted = !k + !nsent + 1;
    failed;
    exhausted = !exhausted;
    stats;
    t_start;
    spans = [ wsp; ssp; rsp ];
  }

(* A full run: [trials] fresh daemons, each timed from spawn to its first
   ack (the median is [setup_s]). The first one is measured. *)
let run ?(inject = false) ~daemon ~out ~tag ~trials ~traced ~seconds wl r
    ~seed =
  let next = calls wl ~seed in
  let first = next () in
  let start i =
    let sock = Filename.concat out (Printf.sprintf "%s-%d.sock" tag i) in
    start_daemon ~daemon ~sock wl first
  in
  let d, setup = start 1 in
  let snap_path = Filename.concat out (tag ^ ".snap") in
  let res =
    Fun.protect
      ~finally:(fun () ->
        stop_daemon d;
        List.iter
          (fun f -> if Sys.file_exists f then Sys.remove f)
          [ snap_path; snap_path ^ ".tmp" ])
      (fun () -> measure ~traced ~inject ~seconds ~snap_path wl r next d)
  in
  let later =
    List.init (trials - 1) (fun i ->
        let d, s = start (i + 2) in
        stop_daemon d;
        s)
  in
  { res with setup_s = (summarize (setup :: later)).median }

(* --- output --------------------------------------------------------------- *)

let num v = Json.Float v

let print_result ~correct ~attempted ~failed metrics =
  let correct =
    correct && List.for_all (fun (_, v, _) -> Float.is_finite v) metrics
  in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool correct);
            ("attempted", Json.Int attempted);
            ("failed", Json.Int failed);
            ( "metrics",
              Json.Obj
                (List.map
                   (fun (name, v, unit) ->
                     (name, Json.Obj [ ("value", num v); ("unit", Json.Str unit) ]))
                   metrics) );
          ]))

let end_to_end (r : run) =
  [
    ("updates_per_s", r.updates_per_s, "1/s");
    ("update_p50_us", r.upd.median, "us");
    ("update_p99_us", reported_p99 r.upd, "us");
    ("query_p50_us", r.qry.median, "us");
    ("query_p99_us", reported_p99 r.qry, "us");
    ("setup_s", r.setup_s, "s");
    ("server_rss_mb", r.rss_mb, "MB");
  ]

(* A run is valid when the writer did not run out of calls, the reader
   kept its schedule and every p99 has ten samples beyond it. The reader
   has fallen behind when 1% of its sends are ten periods late: a backlog,
   not the few-millisecond stalls a shared host gives every process. *)
let validity wl (r : run) =
  let period_us = 1e6 /. wl.reader_hz in
  List.filter_map
    (fun (bad, why) -> if bad then Some why else None)
    [
      (r.exhausted, "writer ran out of precomputed calls");
      (not (r.late.p99 <= 10. *. period_us), "reader fell behind its schedule");
      (not r.upd.p99_ok, "update p99 has fewer than 10 samples beyond it");
      (not r.qry.p99_ok, "query p99 has fewer than 10 samples beyond it");
    ]

let print_run label wl (r : run) =
  Printf.printf "# %s run\n" label;
  Printf.printf "#   updates_per_s %.1f 1/s  setup_s %.4f s  server_rss_mb %.2f MB\n"
    r.updates_per_s r.setup_s r.rss_mb;
  pp_summary "update round trip" "us" r.upd;
  pp_summary "query round trip" "us" r.qry;
  pp_summary "loadgen.late" "us" r.late;
  Printf.printf "#   failed_frac %.6g (%d failed of %d calls)\n"
    (float r.failed /. float (max 1 r.attempted))
    r.failed r.attempted;
  List.iter (Printf.printf "#   INVALID: %s\n") (validity wl r)

let stat_int (r : run) k =
  Option.value ~default:0 (Option.bind (List.assoc_opt k r.stats) Json.to_int)

(* Per span name: the duration of each span. Child spans are leaves, so
   that is their self time; a root's children tile it, so its self time is
   zero and its duration is the call's total. *)
let span_table sps =
  let by_name = Hashtbl.create 16 in
  iter_spans
    (fun name _ t0 t1 ->
      let name = if is_root name then name ^ " (total)" else name in
      Hashtbl.replace by_name name
        ((t1 -. t0) :: Option.value ~default:[] (Hashtbl.find_opt by_name name)))
    sps;
  Hashtbl.fold (fun k v acc -> (k, summarize v) :: acc) by_name []
  |> List.sort compare

let write_spans path (r : run) =
  let call_id c =
    if c >= 0 then Printf.sprintf "w%d" c else Printf.sprintf "r%d" (-c - 1)
  in
  Out_channel.with_open_text path (fun oc ->
      iter_spans
        (fun name call t0 t1 ->
          let cid = call_id call in
          let root = is_root name in
          output_string oc
            (Json.to_string
               (Json.Obj
                  [
                    ("name", Json.Str name);
                    ("id", Json.Str (if root then cid else cid ^ "/" ^ name));
                    ("parent", if root then Json.Null else Json.Str cid);
                    ("call", Json.Str cid);
                    ("start_us", num (t0 -. r.t_start));
                    ("end_us", num (t1 -. r.t_start));
                  ]));
          output_char oc '\n')
        r.spans)

(* --- in-process replay ---------------------------------------------------- *)

let time f =
  let t = now_us () in
  let v = f () in
  (v, now_us () -. t)

(* [Session]'s own drain step: back-to-back identical requests of an op
   verified idempotent collapse to one before the tick. *)
let dedupe oracle reqs =
  List.fold_left
    (fun kept r ->
      match kept with
      | prev :: _ when r = prev && oracle.Runner.co_dedupe r -> kept
      | _ -> r :: kept)
    [] reqs
  |> List.rev

type replay = {
  calls : int;
  decode : summary;
  encode : summary;
  expand : summary;
  plan : summary;
  tick : summary;
  query : summary;
  handoff : summary;
  session_update : summary;
  bytes : int;
  requests : int;  (** singleton updates, after expansion *)
  groups : int;
  elided : int;
  absorbed : int;
  streamed : int;
  work : int;
  counters : (string * int) list;  (** before/after differences *)
  snap_save_ms : float;
  snap_load_ms : float;
  snap_bytes : int;
  replay_failed : int;
}

(* Replay the workload's first [n] generated wire lines through the
   layers' public functions, twice: once through [Wire], [Request],
   [Runner] and [Snapshot] directly, then through [Session.update], whose
   time minus [Runner.step_batch_full]'s on the same batch is the session
   handoff. [budget_us] bounds each pass on a slow host. *)
let replay wl (r : reference) ~seed ~n ~budget_us ~snap_path =
  let e = Registry.find wl.program in
  let p = e.program in
  let backend = (Runner.resolve_backend p `Auto :> Runner.backend) in
  let oracle = Runner.commute_oracle p in
  let failed = ref 0 in
  let counters =
    [
      ("delta.fast_hits", Delta_eval.fast_hits);
      ("delta.small_frontier_hits", Delta_eval.small_frontier_hits);
      ("delta.mask_builds", Delta_eval.mask_builds);
      ("delta.mask_reuse_hits", Delta_eval.mask_reuse_hits);
      ("delta.words_cleared", Delta_eval.words_cleared);
      ("delta.memo_misses", Delta_eval.memo_misses);
      ("bitrel.pages_allocated", Bitrel.pages_allocated);
      ("bitrel.page_skip_hits", Bitrel.skip_hits);
    ]
  in
  let sums = Array.make (List.length counters) 0 in
  let read () = Array.of_list (List.map (fun (_, f) -> f ()) counters) in
  let dec = ref [] and enc = ref [] and exp = ref [] and pln = ref [] in
  let tick = Array.make n 0. and qry = ref [] in
  let bytes = ref 0 and requests = ref 0 and groups = ref 0 in
  let elided = ref 0 and absorbed = ref 0 and streamed = ref 0 and work = ref 0 in
  let next = calls wl ~seed in
  let st = ref (Runner.init p ~size:wl.size) in
  let t_end = now_us () +. budget_us in
  let k = ref 0 in
  while !k < n && now_us () < t_end do
    let id = !k + 2 in
    let line = Wire.cmd_line ~id (Wire.Update { session = "s1"; reqs = next () }) in
    let decoded, t = time (fun () -> Wire.cmd_of_line line) in
    dec := t :: !dec;
    let reqs =
      match decoded with
      | _, Ok (Wire.Update { reqs; _ }) -> reqs
      | _ -> failwith "replay: line did not decode to an update"
    in
    let batch = dedupe oracle reqs in
    let singles, t = time (fun () -> Request.expand_batch (Runner.structure !st) batch) in
    exp := t :: !exp;
    requests := !requests + List.length singles;
    let planned, t = time (fun () -> Runner.plan_groups p singles) in
    pln := t :: !pln;
    groups := !groups + List.length planned;
    let before = read () in
    let (st', w, info), t = time (fun () -> Runner.step_batch_full ~backend !st batch) in
    let after = read () in
    Array.iteri (fun i a -> sums.(i) <- sums.(i) + a - before.(i)) after;
    tick.(!k) <- t;
    st := st';
    work := !work + w;
    elided := !elided + info.Runner.bi_elided;
    absorbed := !absorbed + info.Runner.bi_absorbed;
    streamed := !streamed + info.Runner.bi_streamed;
    let (cmd_line, resp_line), t =
      time (fun () ->
          ( Wire.cmd_line ~id (Wire.Update { session = "s1"; reqs }),
            Wire.resp_line
              (Wire.ok ~id [ ("applied", Json.Int (List.length reqs)); ("work", Json.Int w) ]) ))
    in
    enc := t :: !enc;
    bytes := !bytes + String.length cmd_line + String.length resp_line + 2;
    if (!k + 1) mod wl.query_every = 0 then begin
      let b, t = time (fun () -> Runner.query ~backend !st) in
      qry := t :: !qry;
      if b <> r.answers.(!k + 1) then incr failed
    end;
    incr k
  done;
  let n = !k in
  let snaps =
    List.init 3 (fun _ ->
        let bytes, save =
          time (fun () ->
              Snapshot.save ~path:snap_path ~program:wl.program ~steps:!requests
                (Runner.structure !st))
        in
        let loaded, load = time (fun () -> Snapshot.load ~path:snap_path) in
        if not (Structure.equal loaded.Snapshot.snap_structure (Runner.structure !st))
        then incr failed;
        (bytes, save, load))
  in
  Sys.remove snap_path;
  (* pass two: the same calls through a session's worker thread *)
  let next = calls wl ~seed in
  let s = Session.create ~id:"replay" ~name:wl.program ~backend:`Auto p ~size:wl.size in
  let su = ref [] and handoff = ref [] in
  for k = 0 to n - 1 do
    let reqs = next () in
    let _, t = time (fun () -> Session.update s reqs) in
    su := t :: !su;
    handoff := (t -. tick.(k)) :: !handoff;
    if (k + 1) mod wl.query_every = 0 && Session.query s [] <> r.answers.(k + 1)
    then incr failed
  done;
  Session.close s;
  let med f = (summarize (List.map f snaps)).median in
  {
    calls = n;
    decode = summarize !dec;
    encode = summarize !enc;
    expand = summarize !exp;
    plan = summarize !pln;
    tick = summarize (Array.to_list (Array.sub tick 0 n));
    query = summarize !qry;
    handoff = summarize !handoff;
    session_update = summarize !su;
    bytes = !bytes;
    requests = !requests;
    groups = !groups;
    elided = !elided;
    absorbed = !absorbed;
    streamed = !streamed;
    work = !work;
    counters = List.mapi (fun i (name, _) -> (name, sums.(i))) counters;
    snap_save_ms = med (fun (_, s, _) -> s) /. 1e3;
    snap_load_ms = med (fun (_, _, l) -> l) /. 1e3;
    snap_bytes = (match snaps with (b, _, _) :: _ -> b | [] -> 0);
    replay_failed = !failed;
  }

(* --- modes ---------------------------------------------------------------- *)

type args = {
  wl : workload;
  seed : int;
  seconds : float;
  trace : bool;
  check : bool;  (** run the self-test instead *)
  daemon : string list;  (** the command that starts [dynfo_cli] *)
  out : string;
  provenance : string;
}

let cap_for a =
  int_of_float (a.wl.max_calls_per_s *. (warmup_s +. a.seconds)) + 1

let untraced a =
  let r = reference a.wl ~seed:a.seed ~cap:(cap_for a) in
  let tag = Printf.sprintf "%s-%d-%d" a.wl.name a.seed (Unix.getpid ()) in
  let res =
    run ~daemon:a.daemon ~out:a.out ~tag ~trials:setup_trials ~traced:false
      ~seconds:a.seconds a.wl r ~seed:a.seed
  in
  print_run "untraced" a.wl res;
  Printf.printf "#   session stats: %s\n" (Json.to_string (Json.Obj res.stats));
  print_result
    ~correct:(res.failed = 0 && validity a.wl res = [])
    ~attempted:res.attempted ~failed:res.failed (end_to_end res)

(* Flip one served answer and require the checker to count it. *)
let self_test a =
  let r = reference a.wl ~seed:a.seed ~cap:(cap_for a) in
  let tag = Printf.sprintf "%s-%d-%d-check" a.wl.name a.seed (Unix.getpid ()) in
  let res =
    run ~inject:true ~daemon:a.daemon ~out:a.out ~tag ~trials:1 ~traced:false
      ~seconds:a.seconds a.wl r ~seed:a.seed
  in
  print_run "self-test" a.wl res;
  if res.failed > 0 then
    print_endline "# self-test passed: the injected wrong answer was counted"
  else begin
    print_endline "# self-test FAILED: the injected wrong answer was not counted";
    exit 1
  end

let traced a =
  let wl = a.wl in
  let p = (Registry.find wl.program).program in
  (* first, in this still cold process: the model checking a daemon runs
     when the session is created *)
  let _, advisor_us = time (fun () -> Dynfo_analysis.Advisor.choose p) in
  let _, commute_us = time (fun () -> Dynfo_analysis.Commute.matrix_of p) in
  let _, defchange_us = time (fun () -> Dynfo_analysis.Defchange.matrix_of p) in
  (* the oracles and knobs [dynfo_cli] installs *)
  Dynfo_analysis.Advisor.install ();
  Dynfo_analysis.Commute.install ();
  Dynfo_analysis.Defchange.install ();
  Delta_eval.set_cutoff Delta_eval.default_cutoff;
  Bitrel.set_default_repr `Auto;
  let cap = max (cap_for a) wl.replay_calls in
  let r = reference wl ~seed:a.seed ~cap in
  let tag = Printf.sprintf "%s-%d-%d" wl.name a.seed (Unix.getpid ()) in
  let go traced suffix =
    run ~daemon:a.daemon ~out:a.out ~tag:(tag ^ suffix) ~trials:1 ~traced
      ~seconds:a.seconds wl r ~seed:a.seed
  in
  let plain = go false "-u" in
  let tr = go true "-t" in
  let trace_path = Filename.concat a.out (Printf.sprintf "trace-%s.jsonl" wl.name) in
  write_spans trace_path tr;
  let rp =
    replay wl r ~seed:a.seed ~n:wl.replay_calls ~budget_us:(a.seconds *. 1e6 /. 2.)
      ~snap_path:(Filename.concat a.out (tag ^ "-replay.snap"))
  in
  print_run "untraced" wl plain;
  print_run "traced" wl tr;
  Printf.printf "# tracing overhead (traced - untraced)\n";
  List.iter2
    (fun (name, u, unit) (_, t, _) ->
      Printf.printf "#   %-16s %14.3f -> %14.3f %-4s  %+.3f\n" name u t unit (t -. u))
    (end_to_end plain) (end_to_end tr);
  Printf.printf "# client spans of the traced run (self time, us), written to %s\n"
    trace_path;
  List.iter (fun (name, s) -> pp_summary name "us" s) (span_table tr.spans);
  Printf.printf "# layer replay: %d calls, %d singleton updates, times per call\n"
    rp.calls rp.requests;
  List.iter
    (fun (name, s) -> pp_summary name "us" s)
    [
      ("wire.decode_us", rp.decode);
      ("wire.encode_us", rp.encode);
      ("request.expand_us", rp.expand);
      ("runner.plan_us", rp.plan);
      ("eval.tick_us", rp.tick);
      ("eval.query_us", rp.query);
      ("session.update_us", rp.session_update);
      ("session.handoff_us", rp.handoff);
    ];
  let per_call x = float x /. float (max 1 rp.calls) in
  (* the session's stats from the traced daemon run, per writer call *)
  let per_writer_call k = float (stat_int tr k) /. float (max 1 tr.calls) in
  let per_req x = float x /. float (max 1 rp.requests) in
  let residual =
    plain.upd.median -. (rp.decode.median +. rp.session_update.median +. rp.encode.median)
  in
  Printf.printf "#   %-26s %12.3f us (untraced update p50 - decode - Session.update - encode)\n"
    "server.residual_us" residual;
  let metrics =
    [
      ("wire.decode_us", rp.decode.median, "us");
      ("wire.encode_us", rp.encode.median, "us");
      ("wire.bytes_per_update", per_req rp.bytes, "bytes");
      ("session.handoff_us", rp.handoff.median, "us");
      ("server.residual_us", residual, "us");
      ("session.ticks", per_writer_call "ticks", "1/call");
      ("session.coalesced", per_writer_call "coalesced", "1/call");
      ("session.hoisted", per_writer_call "hoisted", "1/call");
      ( "session.deduped",
        float (stat_int tr "deduped") /. float (max 1 (stat_int tr "steps")),
        "1/update" );
      ("runner.plan_us", rp.plan.median, "us");
      ("runner.groups_per_call", per_call rp.groups, "count");
      ("runner.elided_frac", per_req rp.elided, "ratio");
      ("runner.absorbed_frac", per_req rp.absorbed, "ratio");
      ("runner.streamed_frac", per_req rp.streamed, "ratio");
      ("request.expand_us", rp.expand.median, "us");
      ("request.tuples_per_call", per_call rp.requests, "count");
      ("eval.tick_us", rp.tick.median, "us");
      ("eval.work_per_update", per_req rp.work, "count");
      ("eval.query_us", rp.query.median, "us");
    ]
    @ List.map (fun (name, v) -> (name, float v, "count")) rp.counters
    @ [
        ("snapshot.save_ms", rp.snap_save_ms, "ms");
        ("snapshot.load_ms", rp.snap_load_ms, "ms");
        ("snapshot.bytes", float rp.snap_bytes, "bytes");
        ("analysis.advisor_s", advisor_us /. 1e6, "s");
        ("analysis.commute_s", commute_us /. 1e6, "s");
        ("analysis.defchange_s", defchange_us /. 1e6, "s");
        ("loadgen.late_p99_us", plain.late.p99, "us");
        ("trace.update_p50_overhead_us", tr.upd.median -. plain.upd.median, "us");
      ]
  in
  Printf.printf "# per-layer metrics\n";
  List.iter (fun (name, v, unit) -> Printf.printf "#   %-30s %16.4f %s\n" name v unit) metrics;
  let failed = plain.failed + tr.failed + rp.replay_failed in
  print_result
    ~correct:(failed = 0 && validity wl plain = [] && validity wl tr = [])
    ~attempted:(plain.attempted + tr.attempted + rp.calls)
    ~failed metrics

let parse_args () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let daemon = ref "" and out = ref "" and provenance = ref "" in
  let daemon_cpu = ref (-1) and check = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_int seconds, "S measured seconds per run");
      ("--trace", Arg.Set_int trace, "0|1 traced run and layer replay");
      ("--self-test", Arg.Set check, " check that a wrong answer is counted");
      ("--daemon", Arg.Set_string daemon, "PATH dynfo_cli executable");
      ( "--daemon-cpu",
        Arg.Set_int daemon_cpu,
        "N run the daemon on this CPU only (through taskset)" );
      ("--out", Arg.Set_string out, "DIR sockets, snapshots and traces");
      ("--provenance", Arg.Set_string provenance, "TEXT recorded with the result");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench --workload NAME --seed N --seconds S --trace 0|1 --daemon PATH --out DIR";
  let wl =
    match List.find_opt (fun w -> w.name = !workload) workloads with
    | Some w -> w
    | None ->
        prerr_endline
          ("perfbench: unknown workload " ^ !workload ^ "; one of "
          ^ String.concat ", " (List.map (fun w -> w.name) workloads));
        exit 2
  in
  if !daemon = "" || !out = "" || !seconds <= 0 then begin
    prerr_endline "perfbench: --daemon, --out and a positive --seconds are required";
    exit 2
  end;
  {
    wl;
    seed = !seed;
    seconds = float !seconds;
    trace = !trace = 1;
    check = !check;
    daemon =
      (if !daemon_cpu < 0 then [ !daemon ]
       else [ "taskset"; "-c"; string_of_int !daemon_cpu; !daemon ]);
    out = !out;
    provenance = !provenance;
  }

let () =
  let a = parse_args () in
  at_exit kill_all;
  Sys.set_signal Sys.sigterm (Sys.Signal_handle (fun _ -> exit 3));
  Printf.printf "# perfbench workload=%s seed=%d seconds=%g trace=%d %s\n%!"
    a.wl.name a.seed a.seconds (Bool.to_int a.trace) a.provenance;
  if a.check then self_test a else if a.trace then traced a else untraced a
