open Dynfo

(* One request/response per line; the envelope is a JSON object. Every
   command carries a client-chosen "id" echoed back in the response, so
   clients may pipeline commands and match replies out of band. *)

let version = 1

type cmd =
  | Hello
  | Create of {
      session : string option;
      program : string;
      size : int;
      backend : Runner.backend;
      engine : [ `Seq | `Par ];
      coalesce : [ `Fifo | `Commute ];
    }
  | Attach of { session : string }
  | Destroy of { session : string }
  | Update of { session : string; reqs : Request.t list }
  | Query of { session : string; name : string option; args : int list }
  | Snapshot of { session : string; path : string }
  | Restore of {
      session : string option;
      path : string;
      backend : Runner.backend;
      engine : [ `Seq | `Par ];
      coalesce : [ `Fifo | `Commute ];
    }
  | Stats of { session : string }
  | List_sessions
  | Shutdown

type resp = {
  r_id : int;
  r_ok : bool;
  r_error : string option;
  r_fields : (string * Json.t) list;
}

(* --- backends -------------------------------------------------------------- *)

let backends : (string * Runner.backend) list =
  [ ("tuple", `Tuple); ("bulk", `Bulk); ("delta", `Delta); ("auto", `Auto) ]

let engines = [ ("seq", `Seq); ("par", `Par) ]
let coalesces = [ ("fifo", `Fifo); ("commute", `Commute) ]
let name_in table v = fst (List.find (fun (_, v') -> v' = v) table)
let backend_to_string = name_in backends
let engine_to_string = name_in engines
let coalesce_to_string = name_in coalesces

(* --- encoding -------------------------------------------------------------- *)

let cmd_to_json ~id cmd =
  let base op rest = Json.Obj (("id", Json.Int id) :: ("op", Json.Str op) :: rest) in
  let sess s = ("session", Json.Str s) in
  match cmd with
  | Hello -> base "hello" []
  | Create { session; program; size; backend; engine; coalesce } ->
      base "create"
        ((match session with
         | Some s -> [ sess s ]
         | None -> [])
        @ [
            ("program", Json.Str program);
            ("size", Json.Int size);
            ("backend", Json.Str (backend_to_string backend));
            ("engine", Json.Str (engine_to_string engine));
            ("coalesce", Json.Str (coalesce_to_string coalesce));
          ])
  | Attach { session } -> base "attach" [ sess session ]
  | Destroy { session } -> base "destroy" [ sess session ]
  | Update { session; reqs } ->
      base "update"
        [
          sess session;
          ( "reqs",
            Json.List
              (List.map (fun r -> Json.Str (Request.to_string r)) reqs) );
        ]
  | Query { session; name; args } ->
      base "query"
        ([ sess session ]
        @ (match name with Some n -> [ ("name", Json.Str n) ] | None -> [])
        @
        match args with
        | [] -> []
        | _ -> [ ("args", Json.List (List.map (fun a -> Json.Int a) args)) ])
  | Snapshot { session; path } ->
      base "snapshot" [ sess session; ("path", Json.Str path) ]
  | Restore { session; path; backend; engine; coalesce } ->
      base "restore"
        ((match session with
         | Some s -> [ sess s ]
         | None -> [])
        @ [
            ("path", Json.Str path);
            ("backend", Json.Str (backend_to_string backend));
            ("engine", Json.Str (engine_to_string engine));
            ("coalesce", Json.Str (coalesce_to_string coalesce));
          ])
  | Stats { session } -> base "stats" [ sess session ]
  | List_sessions -> base "list" []
  | Shutdown -> base "shutdown" []

let cmd_line ~id cmd = Json.to_string (cmd_to_json ~id cmd)

let resp_to_json r =
  Json.Obj
    (("id", Json.Int r.r_id)
    :: ("ok", Json.Bool r.r_ok)
    :: ((match r.r_error with
        | Some e -> [ ("error", Json.Str e) ]
        | None -> [])
       @ r.r_fields))

let ok ~id fields = { r_id = id; r_ok = true; r_error = None; r_fields = fields }

let error ~id msg =
  { r_id = id; r_ok = false; r_error = Some msg; r_fields = [] }

let resp_line r = Json.to_string (resp_to_json r)

(* --- decoding -------------------------------------------------------------- *)

let field_str j k = Option.bind (Json.member k j) Json.to_str
let field_int j k = Option.bind (Json.member k j) Json.to_int

let require what = function
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "missing or ill-typed field %S" what)

let ( let* ) r f = Result.bind r f

let session_of j =
  let* s = require "session" (field_str j "session") in
  Ok s

(* an optional name field, read through its table *)
let named_of table ~field ~what ~default j =
  match field_str j field with
  | None -> Ok default
  | Some s -> (
      match List.assoc_opt s table with
      | Some v -> Ok v
      | None -> Error (Printf.sprintf "unknown %s %S" what s))

let backend_of =
  named_of backends ~field:"backend" ~what:"backend" ~default:`Auto

let engine_of = named_of engines ~field:"engine" ~what:"engine" ~default:`Seq

(* optional on the wire (older clients omit it): the default drain mode *)
let coalesce_of =
  named_of coalesces ~field:"coalesce" ~what:"coalesce mode" ~default:`Commute

let reqs_of j =
  let* l = require "reqs" (Option.bind (Json.member "reqs" j) Json.to_list) in
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | Json.Str s :: rest -> (
        match Request.parse s with
        | r -> go (r :: acc) rest
        | exception Failure msg ->
            Error (Printf.sprintf "bad request %S: %s" s msg))
    | _ :: _ -> Error "reqs must be an array of request strings"
  in
  go [] l

let args_of j =
  match Json.member "args" j with
  | None -> Ok []
  | Some v -> (
      match Json.to_list v with
      | None -> Error "args must be an array of integers"
      | Some l ->
          let rec go acc = function
            | [] -> Ok (List.rev acc)
            | Json.Int i :: rest -> go (i :: acc) rest
            | _ :: _ -> Error "args must be an array of integers"
          in
          go [] l)

let cmd_of_json j =
  let id = Option.value ~default:0 (field_int j "id") in
  let cmd =
    let* op = require "op" (field_str j "op") in
    match op with
    | "hello" -> Ok Hello
    | "create" ->
        let* program = require "program" (field_str j "program") in
        let* size = require "size" (field_int j "size") in
        let* backend = backend_of j in
        let* engine = engine_of j in
        let* coalesce = coalesce_of j in
        Ok
          (Create
             {
               session = field_str j "session";
               program;
               size;
               backend;
               engine;
               coalesce;
             })
    | "attach" ->
        let* session = session_of j in
        Ok (Attach { session })
    | "destroy" ->
        let* session = session_of j in
        Ok (Destroy { session })
    | "update" ->
        let* session = session_of j in
        let* reqs = reqs_of j in
        Ok (Update { session; reqs })
    | "query" ->
        let* session = session_of j in
        let* args = args_of j in
        Ok (Query { session; name = field_str j "name"; args })
    | "snapshot" ->
        let* session = session_of j in
        let* path = require "path" (field_str j "path") in
        Ok (Snapshot { session; path })
    | "restore" ->
        let* path = require "path" (field_str j "path") in
        let* backend = backend_of j in
        let* engine = engine_of j in
        let* coalesce = coalesce_of j in
        Ok
          (Restore
             { session = field_str j "session"; path; backend; engine; coalesce })
    | "stats" ->
        let* session = session_of j in
        Ok (Stats { session })
    | "list" -> Ok List_sessions
    | "shutdown" -> Ok Shutdown
    | op -> Error (Printf.sprintf "unknown op %S" op)
  in
  (id, cmd)

let cmd_of_line line =
  match Json.parse line with
  | Error msg -> (0, Error msg)
  | Ok j -> cmd_of_json j

let resp_of_json j =
  let* id = require "id" (field_int j "id") in
  let* okay = require "ok" (Option.bind (Json.member "ok" j) Json.to_bool) in
  match j with
  | Json.Obj fields ->
      let rest =
        List.filter (fun (k, _) -> k <> "id" && k <> "ok" && k <> "error") fields
      in
      Ok
        {
          r_id = id;
          r_ok = okay;
          r_error = field_str j "error";
          r_fields = rest;
        }
  | _ -> Error "response is not an object"

let resp_of_line line =
  match Json.parse line with
  | Error msg -> Error msg
  | Ok j -> resp_of_json j
