type t = {
  lanes : int;
  mutable workers : unit Domain.t array;
  m : Mutex.t;
  work_cv : Condition.t;  (* workers: a new job was posted *)
  done_cv : Condition.t;  (* caller: all worker lanes finished *)
  mutable job : (int -> unit) option;
  mutable epoch : int;  (* bumped per job; workers key off it *)
  mutable remaining : int;
  mutable failure : (exn * Printexc.raw_backtrace) option;
  mutable closed : bool;
}

let lanes t = t.lanes

let record_failure t e =
  let bt = Printexc.get_raw_backtrace () in
  Mutex.lock t.m;
  if t.failure = None then t.failure <- Some (e, bt);
  Mutex.unlock t.m

let rec worker_loop t lane seen_epoch =
  Mutex.lock t.m;
  while (not t.closed) && t.epoch = seen_epoch do
    Condition.wait t.work_cv t.m
  done;
  if t.closed then Mutex.unlock t.m
  else begin
    let epoch = t.epoch in
    let job = Option.get t.job in
    Mutex.unlock t.m;
    (try job lane with e -> record_failure t e);
    Mutex.lock t.m;
    t.remaining <- t.remaining - 1;
    if t.remaining = 0 then Condition.broadcast t.done_cv;
    Mutex.unlock t.m;
    worker_loop t lane epoch
  end

let create ?lanes () =
  let lanes =
    match lanes with
    | None -> max 1 (Domain.recommended_domain_count ())
    | Some l when l >= 1 && l <= 128 -> l
    | Some l ->
        invalid_arg (Printf.sprintf "Pool.create: %d lanes (want 1..128)" l)
  in
  let t =
    {
      lanes;
      workers = [||];
      m = Mutex.create ();
      work_cv = Condition.create ();
      done_cv = Condition.create ();
      job = None;
      epoch = 0;
      remaining = 0;
      failure = None;
      closed = false;
    }
  in
  t.workers <-
    Array.init (lanes - 1) (fun i ->
        Domain.spawn (fun () -> worker_loop t (i + 1) 0));
  t

let run t job =
  if t.lanes = 1 then (
    if t.closed then invalid_arg "Pool.run: pool is shut down";
    job 0)
  else begin
    Mutex.lock t.m;
    if t.closed then begin
      Mutex.unlock t.m;
      invalid_arg "Pool.run: pool is shut down"
    end;
    t.job <- Some job;
    t.failure <- None;
    t.remaining <- t.lanes - 1;
    t.epoch <- t.epoch + 1;
    Condition.broadcast t.work_cv;
    Mutex.unlock t.m;
    (try job 0 with e -> record_failure t e);
    Mutex.lock t.m;
    while t.remaining > 0 do
      Condition.wait t.done_cv t.m
    done;
    t.job <- None;
    let failure = t.failure in
    t.failure <- None;
    Mutex.unlock t.m;
    match failure with
    | Some (e, bt) -> Printexc.raise_with_backtrace e bt
    | None -> ()
  end

let parallel_for t ?chunk ~lo ~hi body =
  let range = hi - lo in
  if range <= 0 then ()
  else if t.lanes = 1 then body ~lane:0 lo hi
  else begin
    let chunk =
      match chunk with
      | Some c when c >= 1 -> c
      | Some c ->
          invalid_arg (Printf.sprintf "Pool.parallel_for: chunk %d < 1" c)
      | None -> max 1 (range / (8 * t.lanes))
    in
    let cursor = Atomic.make lo in
    run t (fun lane ->
        let rec grab () =
          let l = Atomic.fetch_and_add cursor chunk in
          if l < hi then begin
            body ~lane l (min hi (l + chunk));
            grab ()
          end
        in
        grab ())
  end

let shutdown t =
  Mutex.lock t.m;
  let was_closed = t.closed in
  t.closed <- true;
  Condition.broadcast t.work_cv;
  Mutex.unlock t.m;
  if not was_closed then begin
    Array.iter Domain.join t.workers;
    t.workers <- [||]
  end

let inline = create ~lanes:1 ()
let default_cutoff = 2048

let tuple_space ~size ~arity =
  let rec go acc i =
    if i = 0 then acc
    else if acc > max_int / size then max_int
    else go (acc * size) (i - 1)
  in
  go 1 arity

let with_pool ?lanes f =
  let t = create ?lanes () in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)
