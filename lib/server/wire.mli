(** The serving wire protocol: newline-delimited JSON over a stream
    socket.

    Each line is one JSON object. Requests carry a client-chosen
    integer ["id"] plus an ["op"] naming the command; responses echo
    the ["id"] with ["ok": true] and op-specific fields, or
    ["ok": false] and an ["error"] string. Because ids are echoed,
    clients may pipeline many commands before reading any reply and
    match replies by id — the load generator does. Update requests
    travel in their {!Dynfo.Request} concrete syntax (["ins E (0,1)"])
    inside a JSON array; a multi-element array is applied as one
    evaluation tick ([Dynfo.Runner.step_batch]).

    Example exchange:
    {v
    -> {"id":1,"op":"create","program":"reach","size":16,"backend":"auto"}
    <- {"id":1,"ok":true,"session":"s1","resolved":"delta"}
    -> {"id":2,"op":"update","session":"s1","reqs":["ins E (0,1)","ins E (1,2)"]}
    <- {"id":2,"ok":true,"applied":2,"work":312}
    -> {"id":3,"op":"query","session":"s1","name":"reach","args":[0,2]}
    <- {"id":3,"ok":true,"result":true}
    v} *)

open Dynfo

val version : int
(** Protocol version, reported by [hello]. *)

(** Commands, one constructor per ["op"]. *)
type cmd =
  | Hello
  | Create of {
      session : string option;  (** explicit name, or server-assigned *)
      program : string;  (** registry name resolved by the server *)
      size : int;
      backend : Runner.backend;
      engine : [ `Seq | `Par ];
      coalesce : [ `Fifo | `Commute ];
          (** worker drain mode; optional on the wire, default
              [`Commute] *)
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
  r_fields : (string * Json.t) list;  (** op-specific payload *)
}

val backends : (string * Runner.backend) list
(** The name of every backend, engine and coalesce mode — the one table
    both the wire codec and the command line's converters read, so the
    two cannot disagree on a name. *)

val engines : (string * [ `Seq | `Par ]) list
val coalesces : (string * [ `Fifo | `Commute ]) list
val backend_to_string : Runner.backend -> string
val engine_to_string : [ `Seq | `Par ] -> string
val coalesce_to_string : [ `Fifo | `Commute ] -> string

val cmd_to_json : id:int -> cmd -> Json.t

val cmd_line : id:int -> cmd -> string
(** The encoded command as one newline-free line (append ['\n'] to
    send). *)

val cmd_of_json : Json.t -> int * (cmd, string) result
(** Decode an envelope. The id is recovered even when the command is
    malformed (defaulting to [0]), so the error response can still be
    correlated. *)

val cmd_of_line : string -> int * (cmd, string) result

val ok : id:int -> (string * Json.t) list -> resp

val error : id:int -> string -> resp

val resp_to_json : resp -> Json.t

val resp_line : resp -> string

val resp_of_json : Json.t -> (resp, string) result

val resp_of_line : string -> (resp, string) result
