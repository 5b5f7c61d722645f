open Dynfo_logic
open Dynfo

(* One live session: a runner instance plus a dedicated worker thread
   draining a FIFO job queue. Connection threads submit jobs and block
   on a per-call ivar; the worker coalesces every run of consecutive
   update jobs into a single [Runner.step_batch] tick, which is where
   the serving layer's batching win comes from — a burst of clients
   pays for one validation pass, one [`Auto] resolution and one round
   of delta tester rebinds instead of one each.

   In the default [`Commute] coalescing mode the drain additionally
   consults the model-checked commute oracle ([Dynfo_analysis.Commute]
   installs it; the conservative null oracle makes every decision below
   a no-op): an update job may overtake pending queries when every one
   of its requests is verified invisible to every pending query's
   formula, so non-adjacent update jobs still merge into one tick;
   back-to-back identical requests of verified-idempotent ops are
   deduplicated before stepping; and the tick itself runs under the
   oracle ([Runner.step_batch]'s planner groups commuting requests and
   elides verified no-ops). Submitters are always answered
   individually, with their original request counts. [`Fifo] is the same
   drain under the null oracle — strictly order-preserving, the
   measurable baseline for bench E24. *)

(* The domain pool is not reentrant and must be driven by one caller
   at a time, but all [`Par] sessions of a server share one pool — so
   every evaluation of a [`Par] session anywhere in the process takes
   this lock. Sequential sessions evaluate on the runner's inline
   one-lane pool and never touch it. *)
let par_lock = Mutex.create ()

type stats = {
  st_steps : int;  (** singleton requests applied *)
  st_ticks : int;  (** evaluation ticks (a batch is one tick) *)
  st_coalesced : int;  (** update jobs merged into another job's tick *)
  st_work : int;  (** cumulative work charge over all ticks *)
  st_queries : int;
  st_groups : int;  (** commute-planner groups across all ticks *)
  st_elided : int;  (** requests skipped by the verified no-op law *)
  st_absorbed : int;  (** requests applied input-only (Defchange [`Absorb]) *)
  st_streamed : int;  (** requests folded under one delta batch scope *)
  st_deduped : int;  (** identical back-to-back requests collapsed *)
  st_hoisted : int;  (** update jobs that overtook pending queries *)
}

type job =
  | J_update of Request.t list * ((int * int, exn) result -> unit)
  | J_query of string option * int list * ((bool, exn) result -> unit)
  | J_snapshot of string * ((int, exn) result -> unit)

type t = {
  id : string;
  name : string;  (* the external (registry) name the program was found by *)
  program : Program.t;
  backend : Runner.backend;  (* as requested, e.g. [`Auto] *)
  resolved : [ `Tuple | `Bulk | `Delta ];
  engine : [ `Seq | `Par ];
  coalesce : [ `Fifo | `Commute ];
  oracle : Runner.commute_oracle;  (* the drain's: null under [`Fifo] *)
  lock : Mutex.t;
  cond : Condition.t;
  mutable queue : job list;  (* newest first; worker reverses *)
  mutable closing : bool;
  mutable state : Runner.state;
  mutable steps : int;
  mutable ticks : int;
  mutable coalesced : int;
  mutable work : int;
  mutable queries : int;
  mutable groups : int;
  mutable elided : int;
  mutable absorbed : int;
  mutable streamed : int;
  mutable deduped : int;
  mutable hoisted : int;
  mutable worker : Thread.t option;
}

let id t = t.id
let program t = t.program
let name t = t.name
let backend t = t.backend
let resolved t = t.resolved
let engine t = t.engine
let coalesce t = t.coalesce

let structure t = Mutex.protect t.lock (fun () -> Runner.structure t.state)

let size t = Structure.size (structure t)

let stats t =
  Mutex.protect t.lock (fun () ->
      {
        st_steps = t.steps;
        st_ticks = t.ticks;
        st_coalesced = t.coalesced;
        st_work = t.work;
        st_queries = t.queries;
        st_groups = t.groups;
        st_elided = t.elided;
        st_absorbed = t.absorbed;
        st_streamed = t.streamed;
        st_deduped = t.deduped;
        st_hoisted = t.hoisted;
      })

(* --- the worker ------------------------------------------------------------ *)

let on_engine t f =
  match t.engine with `Seq -> f () | `Par -> Mutex.protect par_lock f

let apply_tick t reqs =
  on_engine t (fun () ->
      Runner.step_batch_full ~backend:(t.resolved :> Runner.backend)
        ~oracle:t.oracle t.state reqs)

let run_query t name args =
  let backend = (t.resolved :> Runner.backend) in
  on_engine t (fun () ->
      match name with
      | None -> Runner.query ~backend t.state
      | Some n -> Runner.query_named ~backend t.state n args)

(* Collapse back-to-back identical requests of verified-idempotent ops:
   [r; r ≡ r] by the oracle's law, so the second frontier evaluation is
   pure waste. Only adjacent equal requests are touched — anything
   subtler is the batch planner's job. *)
let dedupe oracle batch =
  let rec go kept dropped = function
    | [] -> (List.rev kept, dropped)
    | r :: rest -> (
        match kept with
        | prev :: _ when r = prev && oracle.Runner.co_dedupe r ->
            go kept (dropped + 1) rest
        | _ -> go (r :: kept) dropped rest)
  in
  go [] 0 batch

let process_updates t updates =
  let p = t.program in
  let size = Structure.size (Runner.structure t.state) in
  let valid, invalid =
    List.partition
      (fun (reqs, _) -> Request.valid_batch p.input_vocab ~size reqs)
      updates
  in
  List.iter
    (fun (reqs, reply) ->
      reply
        (Error
           (Invalid_argument
              (Printf.sprintf "invalid request in batch [%s] for program %s"
                 (Request.batch_to_string reqs) p.name))))
    invalid;
  match valid with
  | [] -> ()
  | _ -> (
      let submitted = List.concat_map fst valid in
      let batch, dropped = dedupe t.oracle submitted in
      match apply_tick t batch with
      | state, w, info ->
          Mutex.protect t.lock (fun () ->
              t.state <- state;
              t.steps <- t.steps + List.length submitted;
              t.ticks <- t.ticks + 1;
              t.coalesced <- t.coalesced + List.length valid - 1;
              t.work <- t.work + w;
              t.groups <- t.groups + info.Runner.bi_groups;
              t.elided <- t.elided + info.Runner.bi_elided;
              t.absorbed <- t.absorbed + info.Runner.bi_absorbed;
              t.streamed <- t.streamed + info.Runner.bi_streamed;
              t.deduped <- t.deduped + dropped);
          List.iter
            (fun (reqs, reply) -> reply (Ok (List.length reqs, w)))
            valid
      | exception e -> List.iter (fun (_, reply) -> reply (Error e)) valid)

let process_job t = function
  | J_update _ -> assert false (* handled by [process_updates] *)
  | J_query (name, args, reply) -> (
      match run_query t name args with
      | r ->
          Mutex.protect t.lock (fun () -> t.queries <- t.queries + 1);
          reply (Ok r)
      | exception e -> reply (Error e))
  | J_snapshot (path, reply) -> (
      let st = Runner.structure t.state in
      let steps = Mutex.protect t.lock (fun () -> t.steps) in
      match Snapshot.save ~path ~program:t.name ~steps st with
      | bytes -> reply (Ok bytes)
      | exception e -> reply (Error e))

(* The drain. Updates accumulate across the whole drained queue slice:
   an update may overtake the queries queued before it when every
   request is verified invisible to every pending query (the answers are
   then unchanged by construction — see DESIGN S25), so non-adjacent
   update jobs still coalesce into one tick. A non-hoistable update, or
   a snapshot (a barrier: it must observe exactly the prefix's effects),
   flushes the accumulated tick and answers the pending queries in
   order. A [`Fifo] session drains under the null oracle, which licenses
   nothing: no request is hoisted, deduplicated, regrouped or elided, so
   only adjacent update jobs share a tick. *)
let drain t jobs =
  let size = Structure.size (Runner.structure t.state) in
  let acc = ref [] (* update jobs, newest first *) in
  let pending = ref [] (* query jobs, newest first *) in
  let hoisted = ref 0 in
  let flush () =
    if !acc <> [] then process_updates t (List.rev !acc);
    acc := [];
    List.iter (process_job t) (List.rev !pending);
    pending := []
  in
  List.iter
    (fun job ->
      match job with
      | J_update (reqs, reply) ->
          if !pending = [] then acc := (reqs, reply) :: !acc
          else if
            Request.valid_batch t.program.input_vocab ~size reqs
            && List.for_all
                 (fun r ->
                   List.for_all
                     (function
                       | J_query (name, _, _) ->
                           t.oracle.Runner.co_invisible r name
                       | _ -> false)
                     !pending)
                 reqs
          then begin
            incr hoisted;
            acc := (reqs, reply) :: !acc
          end
          else begin
            flush ();
            acc := [ (reqs, reply) ]
          end
      | J_query _ -> pending := job :: !pending
      | J_snapshot _ ->
          flush ();
          process_job t job)
    jobs;
  flush ();
  if !hoisted > 0 then
    Mutex.protect t.lock (fun () -> t.hoisted <- t.hoisted + !hoisted)

let rec worker_loop t =
  Mutex.lock t.lock;
  while t.queue = [] && not t.closing do
    Condition.wait t.cond t.lock
  done;
  let jobs = List.rev t.queue in
  t.queue <- [];
  let stop = jobs = [] && t.closing in
  Mutex.unlock t.lock;
  if not stop then begin
    drain t jobs;
    worker_loop t
  end

(* --- construction ---------------------------------------------------------- *)

let spawn t =
  t.worker <- Some (Thread.create worker_loop t);
  t

let make ~id ~name ?pool ~backend ~coalesce state =
  let p = Runner.program state in
  let resolved = Runner.resolve_backend p backend in
  let engine = match pool with None -> `Seq | Some _ -> `Par in
  (* resolve the drain's oracle and warm the Defchange matrix before
     serving, so the model checks run once per program, not under the
     first client's call: a [`Fifo] drain never consults the commute
     oracle, but every tick consults the installed Defchange one. Any
     op hits the whole Defchange matrix. *)
  let oracle =
    match coalesce with
    | `Commute -> Runner.commute_oracle p
    | `Fifo -> Runner.null_oracle
  in
  (match Vocab.relations p.input_vocab with
  | (s : Vocab.sym) :: _ -> ignore (Runner.defchange_verdict p `Ins s.name)
  | [] -> (
      match Vocab.constants p.input_vocab with
      | c :: _ -> ignore (Runner.defchange_verdict p `Set c)
      | [] -> ()));
  spawn
    {
      id;
      name;
      program = p;
      backend;
      resolved;
      engine;
      coalesce;
      oracle;
      lock = Mutex.create ();
      cond = Condition.create ();
      queue = [];
      closing = false;
      state;
      steps = 0;
      ticks = 0;
      coalesced = 0;
      work = 0;
      queries = 0;
      groups = 0;
      elided = 0;
      absorbed = 0;
      streamed = 0;
      deduped = 0;
      hoisted = 0;
      worker = None;
    }

let create ~id ~name ?pool ~backend ?(coalesce = `Commute) (p : Program.t)
    ~size =
  make ~id ~name ?pool ~backend ~coalesce (Runner.init ?pool p ~size)

let of_state ~id ~name ?pool ~backend ?(coalesce = `Commute) ~steps state =
  let t = make ~id ~name ?pool ~backend ~coalesce state in
  t.steps <- steps;
  t

(* --- submission ------------------------------------------------------------ *)

let submit t job =
  Mutex.protect t.lock (fun () ->
      if t.closing then
        invalid_arg (Printf.sprintf "Session.submit: session %s is closed" t.id);
      t.queue <- job t.queue;
      Condition.signal t.cond)

(* Block the calling (connection) thread until the worker replies. *)
let sync fill =
  let m = Mutex.create () in
  let c = Condition.create () in
  let slot = ref None in
  fill (fun r ->
      Mutex.protect m (fun () ->
          slot := Some r;
          Condition.signal c));
  let r =
    Mutex.protect m (fun () ->
        while !slot = None do
          Condition.wait c m
        done;
        Option.get !slot)
  in
  match r with Ok v -> v | Error e -> raise e

let update t reqs =
  sync (fun reply -> submit t (fun q -> J_update (reqs, reply) :: q))

let query t ?name args =
  sync (fun reply -> submit t (fun q -> J_query (name, args, reply) :: q))

let snapshot t ~path =
  sync (fun reply -> submit t (fun q -> J_snapshot (path, reply) :: q))

let close t =
  let join =
    Mutex.protect t.lock (fun () ->
        if t.closing then None
        else begin
          t.closing <- true;
          Condition.signal t.cond;
          t.worker
        end)
  in
  Option.iter Thread.join join
