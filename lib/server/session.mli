(** One live serving session: a runner instance owned by a dedicated
    worker thread.

    Connection threads never touch the runner directly — they submit
    jobs (updates, queries, snapshots) to the session's FIFO queue and
    block until the worker replies. The worker drains the queue in
    order, and {e coalesces every run of consecutive update jobs into a
    single batch} applied as one [Dynfo.Runner.step_batch] evaluation
    tick. Under concurrent load this is the batching win: a burst of
    clients pays one validation pass, one [`Auto] resolution and one
    round of delta tester rebinds instead of one each — while FIFO
    order keeps the semantics exactly those of the singleton sequence
    (a query submitted after an update observes it).

    There is one drain. In the default [`Commute] mode it runs under
    the installed commute oracle, resolved once when the session is
    made, whose verified laws let updates overtake queries they cannot
    affect, collapse idempotent duplicates, and regroup or elide
    requests inside the tick. [`Fifo] runs the same drain under
    [Dynfo.Runner.null_oracle], which licenses none of that.

    Sessions evaluate on the runner's inline one-lane pool by default
    ([`Seq]); pass [?pool] to evaluate on a domain pool instead
    ([`Par]). Both engines run the same [Dynfo.Runner.step_batch] tick
    and report the same batch statistics. The pool is shared by all
    parallel sessions of a server and is {e not} reentrant, so every
    evaluation of a [`Par] session process-wide is serialized under one
    internal lock. *)

open Dynfo_logic
open Dynfo

type t

type stats = {
  st_steps : int;  (** singleton requests applied *)
  st_ticks : int;  (** evaluation ticks (a coalesced batch is one) *)
  st_coalesced : int;  (** update jobs that rode along in another's tick *)
  st_work : int;  (** cumulative work charge over all ticks *)
  st_queries : int;
  st_groups : int;  (** commute-planner groups across all ticks *)
  st_elided : int;  (** requests skipped by the verified no-op law *)
  st_absorbed : int;
      (** requests applied input-only — whole groups absorbed in one
          tick under a Defchange [`Absorb] verdict *)
  st_streamed : int;
      (** requests folded under one delta batch scope (Defchange
          [`Stream] groups on the delta backend) *)
  st_deduped : int;  (** identical back-to-back requests collapsed *)
  st_hoisted : int;  (** update jobs that overtook pending queries *)
}

val create :
  id:string ->
  name:string ->
  ?pool:Dynfo_engine.Pool.t ->
  backend:Runner.backend ->
  ?coalesce:[ `Fifo | `Commute ] ->
  Program.t ->
  size:int ->
  t
(** Fresh session over [f_n(empty)]; spawns the worker thread. [name]
    is the external (registry) name the program was found by — it is
    what snapshots record, so a restore can find the program again.
    [coalesce] (default [`Commute]) selects the drain mode: [`Fifo] is
    the same drain under [Dynfo.Runner.null_oracle], so no request is
    hoisted, deduplicated, regrouped or elided. Both modes warm the
    program's Defchange matrix before serving; [`Commute] also resolves
    its commute oracle (and so its matrix) here, once. *)

val of_state :
  id:string ->
  name:string ->
  ?pool:Dynfo_engine.Pool.t ->
  backend:Runner.backend ->
  ?coalesce:[ `Fifo | `Commute ] ->
  steps:int ->
  Runner.state ->
  t
(** Adopt a restored runner state (snapshot restore path); [steps]
    seeds the request counter with the snapshot's. [pool] must be the
    pool the state evaluates on ([Dynfo.Runner.restore ?pool]): it makes
    the session a [`Par] one. *)

val id : t -> string
val name : t -> string
(** The external program name (see {!create}). *)

val program : t -> Program.t
val size : t -> int
val backend : t -> Runner.backend
(** The backend as requested (possibly [`Auto]). *)

val resolved : t -> [ `Tuple | `Bulk | `Delta ]
(** What [`Auto] resolved to at session creation. *)

val engine : t -> [ `Seq | `Par ]

val coalesce : t -> [ `Fifo | `Commute ]
(** The drain mode the session was created with. *)

val structure : t -> Structure.t
(** The combined structure as of the last completed tick. *)

val update : t -> Request.t list -> int * int
(** Enqueue a batch and wait for its tick; returns
    [(applied, tick_work)] where [applied] is this call's request count
    and [tick_work] the work charge of the {e whole} tick it ran in
    (which may have included coalesced neighbours). The tick meters its
    own counter ({!Dynfo.Runner.step_batch_full}), so [tick_work] is
    exact however many other sessions evaluate concurrently. An invalid
    request rejects this call's batch atomically ([Invalid_argument])
    without disturbing coalesced neighbours. *)

val query : t -> ?name:string -> int list -> bool
(** The program query ([?name] absent) or a named parameterised query.
    Runs at a tick boundary, after every previously submitted update. *)

val snapshot : t -> path:string -> int
(** Serialize the session at a tick boundary ({!Snapshot.save});
    returns the byte size written. *)

val stats : t -> stats

val close : t -> unit
(** Drain the queue, stop the worker, join it. Idempotent; subsequent
    submissions raise [Invalid_argument]. *)
