(** Client side of the {!Wire} protocol.

    Two interfaces over one connection: synchronous {!call} (send one
    command, wait for its reply — what the CLI subcommands use) and the
    raw pipelined {!send}/{!recv} pair (queue many commands before
    reading any reply, matching responses by id — what the load
    generator uses to keep the server's coalescing queue non-empty).
    A connection is not thread-safe; open one per driving thread. *)

open Dynfo

type t

val connect : [ `Unix of string | `Tcp of string * int ] -> t
(** Raises [Unix.Unix_error] if the server is not there. *)

val close : t -> unit

(** {1 Pipelined interface} *)

val send : t -> Wire.cmd -> int
(** Write one command (buffered — {!flush} before waiting) and return
    its id. Responses to a connection come back in submission order. *)

val flush : t -> unit

val recv : t -> Wire.resp
(** Next response line. Raises [Failure] on EOF or garbage. *)

val raw_call : t -> string -> string
(** Send a raw protocol line verbatim and return the raw response line —
    the [dynfo_cli client] scripting mode. Raises [Failure] on EOF. *)

(** {1 Synchronous calls} *)

val call : t -> Wire.cmd -> (string * Json.t) list
(** [send] + [flush] + [recv]; returns the payload fields of an [ok]
    response. Raises [Failure] with the server's message otherwise. *)

val hello : t -> string * int
(** Server name and protocol version. *)

val create :
  t ->
  ?session:string ->
  ?backend:Runner.backend ->
  ?engine:[ `Seq | `Par ] ->
  ?coalesce:[ `Fifo | `Commute ] ->
  program:string ->
  size:int ->
  unit ->
  string
(** Create a session; returns its id. [backend] defaults to [`Auto],
    [engine] to [`Seq], [coalesce] to [`Commute] (the commute-aware
    drain; pass [`Fifo] for the strict baseline). *)

val destroy : t -> session:string -> unit

val update : t -> session:string -> Request.t list -> int * int
(** Apply a batch as one tick; [(applied, tick_work)]. *)

val query : t -> session:string -> ?name:string -> int list -> bool

val snapshot : t -> session:string -> path:string -> int
(** Returns the snapshot's byte size. *)

val restore :
  t ->
  ?session:string ->
  ?backend:Runner.backend ->
  ?engine:[ `Seq | `Par ] ->
  ?coalesce:[ `Fifo | `Commute ] ->
  path:string ->
  unit ->
  string * int
(** Create a session from a snapshot file (server-side path); returns
    the new session id and its restored step counter. *)

type stats = {
  steps : int;
  ticks : int;
  coalesced : int;
  work : int;
  queries : int;
  groups : int;  (** commute-planner groups across all ticks *)
  elided : int;  (** requests skipped by the verified no-op law *)
  deduped : int;  (** identical back-to-back requests collapsed *)
  hoisted : int;  (** update jobs that overtook pending queries *)
  delta_fast_hits : int;
      (** process-wide {!Dynfo_logic.Delta_eval} counters, read from the
          reply's ["process"] object *)
  delta_memo_hits : int;
  delta_memo_misses : int;
  delta_mask_builds : int;
  delta_mask_reuse_hits : int;  (** persistent masks refilled in place *)
  delta_words_cleared : int;  (** dirty words zeroed by those refills *)
  delta_small_frontier_hits : int;  (** mask-free explicit-code frontiers *)
}

val stats : t -> session:string -> stats

val list_sessions : t -> (string * string) list
(** [(session id, program name)] pairs. *)

val shutdown : t -> unit
(** Ask the server to stop (it still replies first). *)
