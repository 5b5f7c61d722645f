(** A reusable fixed-size pool of OCaml 5 domains with chunked fan-out.

    The pool realises the hardware side of the paper's CRAM[1] reading of
    FO: a fixed set of processors that all update formulas are fanned out
    over. It is hand-rolled on [Domain], [Mutex] and [Condition] (no
    external dependency): [lanes - 1] worker domains block on a condition
    variable between jobs, and the calling domain participates as lane 0,
    so a pool of [lanes = 1] spawns nothing and runs everything inline.

    Jobs are synchronous: {!run} and {!parallel_for} return only when
    every lane has finished, and re-raise the first exception any lane
    threw. The pool is {e not} reentrant — submitting a job from inside a
    job deadlocks — and a pool must only be driven by one caller at a
    time. Both restrictions are fine for the engine: one request is
    evaluated at a time, and its rules one after another, each fanned
    out on its own.

    The evaluators ([Dynfo_logic.Eval.define],
    [Dynfo_logic.Bulk_eval.define]/[holds],
    [Dynfo_logic.Delta_eval.define]) take a pool and a fan-out
    [cutoff]. Each runs one kernel over a range — tuple-prefix codes,
    destination words or frontier words — through {!parallel_for}: on
    {!inline} (their default) that is one call over the whole range, the
    sequential loop; on more lanes it is one call per chunk, with the
    per-lane results merged after the job returns. *)

type t

val create : ?lanes:int -> unit -> t
(** [create ~lanes ()] spawns [lanes - 1] worker domains. [lanes]
    defaults to {!Domain.recommended_domain_count}[ ()]; it is capped at
    128 and must be at least 1. Raises [Invalid_argument] otherwise. *)

val lanes : t -> int
(** Total parallelism, worker domains plus the calling domain. *)

val run : t -> (int -> unit) -> unit
(** [run t job] executes [job lane] once on every lane
    [0 .. lanes t - 1] simultaneously ([job 0] in the calling domain) and
    waits for all of them. Raises [Invalid_argument] on a shut-down pool. *)

val parallel_for :
  t -> ?chunk:int -> lo:int -> hi:int -> (lane:int -> int -> int -> unit) ->
  unit
(** [parallel_for t ~lo ~hi body] covers the index range [\[lo, hi)] with
    disjoint chunks [body ~lane l r] (meaning indices [\[l, r)]), handed
    out dynamically: lanes grab the next chunk from a shared atomic
    cursor, so irregular per-index cost still balances. [chunk] is the
    chunk width (default: range / (8 * lanes), at least 1). [lane] lets
    the body keep per-lane state without synchronisation. *)

val shutdown : t -> unit
(** Terminate and join the worker domains. Idempotent; the pool rejects
    further jobs. *)

val inline : t
(** The shared one-lane pool: it spawns no domain and runs every job in
    the calling domain, so any thread may use it. The evaluators'
    default; never shut it down. *)

val default_cutoff : int
(** 2048 — the evaluators' default fan-out cutoff: the smallest tuple
    space (or dirty frontier, in tuples) worth splitting across lanes,
    roughly where per-request fan-out cost (a condition-variable round
    trip plus one compile per lane) drops below the enumeration cost it
    saves. Below it an evaluator runs on {!inline}. *)

val tuple_space : size:int -> arity:int -> int
(** [size ^ arity], saturating at [max_int]. *)

val with_pool : ?lanes:int -> (t -> 'a) -> 'a
(** [with_pool ~lanes f] runs [f] over a fresh pool, shutting it down on
    return or exception. *)
