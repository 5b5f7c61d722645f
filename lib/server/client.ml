type t = { ic : in_channel; oc : out_channel; mutable next_id : int }

let connect (addr : [ `Unix of string | `Tcp of string * int ]) =
  let domain, sockaddr =
    match addr with
    | `Unix path -> (Unix.PF_UNIX, Unix.ADDR_UNIX path)
    | `Tcp (host, port) ->
        (Unix.PF_INET, Unix.ADDR_INET (Unix.inet_addr_of_string host, port))
  in
  let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
  (try Unix.connect fd sockaddr
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise e);
  {
    ic = Unix.in_channel_of_descr fd;
    oc = Unix.out_channel_of_descr fd;
    next_id = 0;
  }

let close t = close_out_noerr t.oc

(* --- raw pipelined interface ----------------------------------------------- *)

let send t cmd =
  t.next_id <- t.next_id + 1;
  let id = t.next_id in
  output_string t.oc (Wire.cmd_line ~id cmd);
  output_char t.oc '\n';
  id

let flush t = Stdlib.flush t.oc

let recv t =
  match input_line t.ic with
  | exception End_of_file -> failwith "Client.recv: connection closed"
  | line -> (
      match Wire.resp_of_line line with
      | Ok r -> r
      | Error msg -> failwith ("Client.recv: bad response line: " ^ msg))

let raw_call t line =
  output_string t.oc line;
  output_char t.oc '\n';
  Stdlib.flush t.oc;
  match input_line t.ic with
  | exception End_of_file -> failwith "Client.raw_call: connection closed"
  | reply -> reply

(* --- synchronous calls ----------------------------------------------------- *)

let call t cmd =
  let id = send t cmd in
  flush t;
  let r = recv t in
  if r.Wire.r_id <> id then
    failwith
      (Printf.sprintf "Client.call: response id %d does not match request %d"
         r.Wire.r_id id);
  if r.Wire.r_ok then r.Wire.r_fields
  else failwith (Option.value ~default:"unspecified server error" r.Wire.r_error)

let field what conv fields k =
  match Option.bind (List.assoc_opt k fields) conv with
  | Some v -> v
  | None -> failwith (Printf.sprintf "Client: missing %s field %S" what k)

let int_field fields k = field "integer" Json.to_int fields k
let str_field fields k = field "string" Json.to_str fields k
let bool_field fields k = field "boolean" Json.to_bool fields k

(* --- typed helpers --------------------------------------------------------- *)

let hello t =
  let fields = call t Wire.Hello in
  (str_field fields "server", int_field fields "version")

let create t ?session ?(backend = `Auto) ?(engine = `Seq)
    ?(coalesce = `Commute) ~program ~size () =
  let fields =
    call t (Wire.Create { session; program; size; backend; engine; coalesce })
  in
  str_field fields "session"

let destroy t ~session = ignore (call t (Wire.Destroy { session }))

let update t ~session reqs =
  let fields = call t (Wire.Update { session; reqs }) in
  (int_field fields "applied", int_field fields "work")

let query t ~session ?name args =
  bool_field (call t (Wire.Query { session; name; args })) "result"

let snapshot t ~session ~path =
  int_field (call t (Wire.Snapshot { session; path })) "bytes"

let restore t ?session ?(backend = `Auto) ?(engine = `Seq)
    ?(coalesce = `Commute) ~path () =
  let fields =
    call t (Wire.Restore { session; path; backend; engine; coalesce })
  in
  (str_field fields "session", int_field fields "steps")

type stats = {
  steps : int;
  ticks : int;
  coalesced : int;
  work : int;
  queries : int;
  groups : int;
  elided : int;
  deduped : int;
  hoisted : int;
  delta_fast_hits : int;
  delta_memo_hits : int;
  delta_memo_misses : int;
  delta_mask_builds : int;
  delta_mask_reuse_hits : int;
  delta_words_cleared : int;
  delta_small_frontier_hits : int;
}

let stats t ~session =
  let fields = call t (Wire.Stats { session }) in
  (* the commute and process counters are absent from older servers *)
  let opt k = Option.value ~default:0 (Option.bind (List.assoc_opt k fields) Json.to_int) in
  let process k =
    Option.value ~default:0
      (Option.bind
         (Option.bind (List.assoc_opt "process" fields) (Json.member k))
         Json.to_int)
  in
  {
    steps = int_field fields "steps";
    ticks = int_field fields "ticks";
    coalesced = int_field fields "coalesced";
    work = int_field fields "work";
    queries = int_field fields "queries";
    groups = opt "groups";
    elided = opt "elided";
    deduped = opt "deduped";
    hoisted = opt "hoisted";
    delta_fast_hits = process "delta_fast_hits";
    delta_memo_hits = process "delta_memo_hits";
    delta_memo_misses = process "delta_memo_misses";
    delta_mask_builds = process "delta_mask_builds";
    delta_mask_reuse_hits = process "delta_mask_reuse_hits";
    delta_words_cleared = process "delta_words_cleared";
    delta_small_frontier_hits = process "delta_small_frontier_hits";
  }

let list_sessions t =
  match List.assoc_opt "sessions" (call t Wire.List_sessions) with
  | Some (Json.List rows) ->
      List.filter_map
        (fun row ->
          Option.bind (Json.member "session" row) Json.to_str
          |> Option.map (fun id ->
                 ( id,
                   Option.bind (Json.member "program" row) Json.to_str
                   |> Option.value ~default:"?" )))
        rows
  | _ -> failwith "Client: missing sessions field"

let shutdown t = ignore (call t Wire.Shutdown)
