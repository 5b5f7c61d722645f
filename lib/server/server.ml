open Dynfo

type addr = [ `Unix of string | `Tcp of string * int ]

type config = {
  addr : addr;
  lanes : int option;
  find_program : string -> Program.t option;
}

type t = {
  config : config;
  sock : Unix.file_descr;
  bound : Unix.sockaddr;
  lock : Mutex.t;
  sessions : (string, Session.t) Hashtbl.t;
  mutable next_id : int;
  mutable pool : Dynfo_engine.Pool.t option;  (* lazily, on first par session *)
  mutable stopping : bool;
}

(* --- lifecycle ------------------------------------------------------------- *)

let start config =
  let domain, sockaddr =
    match config.addr with
    | `Unix path ->
        if Sys.file_exists path then Unix.unlink path;
        (Unix.PF_UNIX, Unix.ADDR_UNIX path)
    | `Tcp (host, port) ->
        (Unix.PF_INET, Unix.ADDR_INET (Unix.inet_addr_of_string host, port))
  in
  let sock = Unix.socket domain Unix.SOCK_STREAM 0 in
  (match config.addr with
  | `Tcp _ -> Unix.setsockopt sock Unix.SO_REUSEADDR true
  | `Unix _ -> ());
  Unix.bind sock sockaddr;
  Unix.listen sock 64;
  {
    config;
    sock;
    bound = Unix.getsockname sock;
    lock = Mutex.create ();
    sessions = Hashtbl.create 16;
    next_id = 0;
    pool = None;
    stopping = false;
  }

let port t =
  match t.bound with Unix.ADDR_INET (_, p) -> Some p | Unix.ADDR_UNIX _ -> None

let stop t =
  let was =
    Mutex.protect t.lock (fun () ->
        let was = t.stopping in
        t.stopping <- true;
        was)
  in
  if not was then begin
    (* A thread blocked in accept(2) keeps a reference to the open
       socket, so closing the fd here would NOT wake it. Instead poke
       the listener with a throwaway connection (if nobody is blocked
       right now, it just sits in the backlog until the next accept),
       then shut it down; the accept loop sees [stopping] and closes
       the socket itself. *)
    (try
       let target =
         match t.config.addr with
         | `Unix path -> Unix.ADDR_UNIX path
         | `Tcp _ -> t.bound
       in
       let fd =
         Unix.socket (Unix.domain_of_sockaddr target) Unix.SOCK_STREAM 0
       in
       Fun.protect
         ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
         (fun () -> Unix.connect fd target)
     with Unix.Unix_error _ -> ());
    try Unix.shutdown t.sock Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ()
  end

let pool_for t =
  Mutex.protect t.lock (fun () ->
      match t.pool with
      | Some p -> p
      | None ->
          let p = Dynfo_engine.Pool.create ?lanes:t.config.lanes () in
          t.pool <- Some p;
          p)

(* --- session table --------------------------------------------------------- *)

let fresh_id t =
  (* caller holds [t.lock] *)
  let rec go () =
    t.next_id <- t.next_id + 1;
    let id = Printf.sprintf "s%d" t.next_id in
    if Hashtbl.mem t.sessions id then go () else id
  in
  go ()

let register t requested make =
  Mutex.protect t.lock (fun () ->
      let id =
        match requested with
        | None -> fresh_id t
        | Some id ->
            if Hashtbl.mem t.sessions id then
              failwith (Printf.sprintf "session %S already exists" id);
            id
      in
      let s = make id in
      Hashtbl.replace t.sessions id s;
      s)

let lookup t id =
  match Mutex.protect t.lock (fun () -> Hashtbl.find_opt t.sessions id) with
  | Some s -> s
  | None -> failwith (Printf.sprintf "unknown session %S" id)

let remove t id =
  match
    Mutex.protect t.lock (fun () ->
        match Hashtbl.find_opt t.sessions id with
        | Some s ->
            Hashtbl.remove t.sessions id;
            Some s
        | None -> None)
  with
  | Some s -> Session.close s
  | None -> failwith (Printf.sprintf "unknown session %S" id)

let session_fields s =
  [
    ("session", Json.Str (Session.id s));
    ("program", Json.Str (Session.name s));
    ("size", Json.Int (Session.size s));
    ("backend", Json.Str (Wire.backend_to_string (Session.backend s)));
    ( "resolved",
      Json.Str
        (Wire.backend_to_string ((Session.resolved s) :> Runner.backend)) );
    ("engine", Json.Str (Wire.engine_to_string (Session.engine s)));
    ("coalesce", Json.Str (Wire.coalesce_to_string (Session.coalesce s)));
  ]

(* --- dispatch -------------------------------------------------------------- *)

let find_program t name =
  match t.config.find_program name with
  | Some p -> p
  | None -> failwith (Printf.sprintf "unknown program %S" name)

let create_session t ~session ~engine make =
  let pool = match engine with `Seq -> None | `Par -> Some (pool_for t) in
  let s = register t session (fun id -> make ?pool id) in
  session_fields s

let dispatch t (cmd : Wire.cmd) : (string * Json.t) list =
  match cmd with
  | Hello ->
      [ ("server", Json.Str "dynfo"); ("version", Json.Int Wire.version) ]
  | Create { session; program; size; backend; engine; coalesce } ->
      let p = find_program t program in
      create_session t ~session ~engine (fun ?pool id ->
          Session.create ~id ~name:program ?pool ~backend ~coalesce p ~size)
  | Attach { session } ->
      let s = lookup t session in
      let st = Session.stats s in
      session_fields s @ [ ("steps", Json.Int st.st_steps) ]
  | Destroy { session } ->
      remove t session;
      []
  | Update { session; reqs } ->
      let s = lookup t session in
      let applied, work = Session.update s reqs in
      [ ("applied", Json.Int applied); ("work", Json.Int work) ]
  | Query { session; name; args } ->
      let s = lookup t session in
      let result =
        match Session.query s ?name args with
        | r -> r
        | exception Not_found ->
            failwith
              (Printf.sprintf "unknown query %S"
                 (Option.value ~default:"" name))
      in
      [ ("result", Json.Bool result) ]
  | Snapshot { session; path } ->
      let s = lookup t session in
      let bytes = Session.snapshot s ~path in
      [ ("path", Json.Str path); ("bytes", Json.Int bytes) ]
  | Restore { session; path; backend; engine; coalesce } ->
      let loaded = Snapshot.load ~path in
      let p = find_program t loaded.Snapshot.snap_program in
      let steps = loaded.Snapshot.snap_steps in
      create_session t ~session ~engine (fun ?pool id ->
          Session.of_state ~id ~name:loaded.Snapshot.snap_program ?pool
            ~backend ~coalesce ~steps
            (Runner.restore ?pool p loaded.Snapshot.snap_structure))
      @ [ ("steps", Json.Int steps) ]
  | Stats { session } ->
      let s = lookup t session in
      let st = Session.stats s in
      [
        ("steps", Json.Int st.st_steps);
        ("ticks", Json.Int st.st_ticks);
        ("coalesced", Json.Int st.st_coalesced);
        ("work", Json.Int st.st_work);
        ("queries", Json.Int st.st_queries);
        ("groups", Json.Int st.st_groups);
        ("elided", Json.Int st.st_elided);
        ("absorbed", Json.Int st.st_absorbed);
        ("deduped", Json.Int st.st_deduped);
        ("hoisted", Json.Int st.st_hoisted);
        (* counters of the whole process, earned by every session and by
           the analyses' model checks, kept apart from this session's *)
        ( "process",
          let open Dynfo_logic in
          Json.Obj
            [
              ("delta_fast_hits", Json.Int (Delta_eval.fast_hits ()));
              ("delta_memo_hits", Json.Int (Delta_eval.memo_hits ()));
              ("delta_memo_misses", Json.Int (Delta_eval.memo_misses ()));
              ("delta_mask_builds", Json.Int (Delta_eval.mask_builds ()));
              ( "delta_mask_reuse_hits",
                Json.Int (Delta_eval.mask_reuse_hits ()) );
              ("delta_words_cleared", Json.Int (Delta_eval.words_cleared ()));
              ( "delta_small_frontier_hits",
                Json.Int (Delta_eval.small_frontier_hits ()) );
              ("pages_allocated", Json.Int (Bitrel.pages_allocated ()));
              ("page_skip_hits", Json.Int (Bitrel.skip_hits ()));
            ] );
      ]
  | List_sessions ->
      let rows =
        Mutex.protect t.lock (fun () ->
            Hashtbl.fold (fun _ s acc -> s :: acc) t.sessions [])
      in
      let rows =
        List.sort (fun a b -> compare (Session.id a) (Session.id b)) rows
      in
      [ ("sessions", Json.List (List.map (fun s -> Json.Obj (session_fields s)) rows)) ]
  | Shutdown -> [ ("stopping", Json.Bool true) ]

let error_message = function
  | Failure msg -> msg
  | Invalid_argument msg -> msg
  | Snapshot.Corrupt msg -> "corrupt snapshot: " ^ msg
  | Sys_error msg -> msg
  | e -> Printexc.to_string e

(* --- connections ----------------------------------------------------------- *)

let handle_conn t fd =
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  let respond r =
    output_string oc (Wire.resp_line r);
    output_char oc '\n';
    flush oc
  in
  let rec loop () =
    match input_line ic with
    | exception (End_of_file | Sys_error _) -> ()
    | line when String.trim line = "" -> loop ()
    | line -> (
        let id, cmd = Wire.cmd_of_line line in
        match cmd with
        | Error msg ->
            respond (Wire.error ~id msg);
            loop ()
        | Ok Wire.Shutdown ->
            respond (Wire.ok ~id (dispatch t Wire.Shutdown));
            stop t
        | Ok cmd -> (
            (match dispatch t cmd with
            | fields -> respond (Wire.ok ~id fields)
            | exception e -> respond (Wire.error ~id (error_message e)));
            loop ()))
  in
  (try loop () with Sys_error _ -> ());
  close_out_noerr oc

(* --- accept loop ----------------------------------------------------------- *)

let serve t =
  let stopping () = Mutex.protect t.lock (fun () -> t.stopping) in
  let rec accept_loop () =
    match Unix.accept t.sock with
    | fd, _ ->
        if stopping () then (try Unix.close fd with Unix.Unix_error _ -> ())
        else begin
          ignore (Thread.create (fun () -> handle_conn t fd) ());
          accept_loop ()
        end
    | exception
        Unix.Unix_error ((Unix.EBADF | Unix.EINVAL | Unix.ECONNABORTED), _, _)
      when stopping () ->
        ()
    | exception Unix.Unix_error (Unix.ECONNABORTED, _, _) -> accept_loop ()
  in
  accept_loop ();
  (try Unix.close t.sock with Unix.Unix_error _ -> ());
  (* orderly teardown: close every session (each drains its queue), then
     the pool's domains *)
  let sessions =
    Mutex.protect t.lock (fun () ->
        let l = Hashtbl.fold (fun _ s acc -> s :: acc) t.sessions [] in
        Hashtbl.reset t.sessions;
        l)
  in
  List.iter Session.close sessions;
  Mutex.protect t.lock (fun () ->
      Option.iter Dynfo_engine.Pool.shutdown t.pool;
      t.pool <- None);
  match t.config.addr with
  | `Unix path -> if Sys.file_exists path then Unix.unlink path
  | `Tcp _ -> ()

let run config =
  let t = start config in
  serve t;
  t
