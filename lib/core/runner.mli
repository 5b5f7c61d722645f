(** Executing a dynamic program: the evaluation map [g_n] of Section 3.1.

    A {!state} couples a program with its current combined structure. Each
    {!step} applies the update block for the request: temporaries are
    evaluated sequentially, then all rules are evaluated against the
    pre-update structure (plus temporaries) and installed simultaneously.
    If the program has no rule redefining the updated input relation
    itself, the tuple is inserted/deleted directly (the common case where
    maintaining the input is "trivial", as the paper puts it).

    Every state evaluates on a {!Dynfo_engine.Pool} of domains — the
    CRAM[1] reading of FO. The rules of an update block all read the
    pre-update structure, so they are parallel across rules and within
    each rule; the runner evaluates them in order, each parallel inside.
    Each backend has one evaluator, handed the state's pool
    and cutoff: {!Dynfo_logic.Eval.define} partitions a rule's tuple
    space, {!Dynfo_logic.Bulk_eval.define} chunks the bitset kernels by
    word ranges, {!Dynfo_logic.Delta_eval.define} chunks the dirty
    frontier. Without [?pool] a state uses
    {!Dynfo_engine.Pool.inline}, which spawns no domain and on which
    each evaluator's kernel runs once over its whole range — the
    sequential loop. Answers and work counts are the same on any pool:
    the harness cross-checks them on every registry program.

    {b Work.} {!step}, {!run}, {!step_batch} and {!query} add the work
    of their evaluations to an optional [?work] counter the caller owns,
    and nowhere else (pool lanes count into their own, merged after each
    job), so a step's work depends only on its pre-state and requests.
    [?work] is an output: passing it or not changes no result.

    A state also carries the delta backend's frontier cache
    ({!Dynfo_logic.Delta_eval.cache}: compiled testers, anchor caches,
    dirty masks), as it carries its pool. {!init} and {!restore}
    create an empty one; every state stepped from them — forks
    included — shares it, so the cache only ever follows that one
    runner's history and no other runner, restore or analysis touches
    it. *)

open Dynfo_logic

type state

type backend = [ `Tuple | `Bulk | `Delta | `Auto ]
(** How update formulas (and queries) are evaluated:
    - [`Tuple] — tuple-at-a-time {!Dynfo_logic.Eval}: enumerate the
      target space, one compiled-closure test per tuple (the default);
    - [`Bulk] — set-at-a-time {!Dynfo_logic.Bulk_eval}: dense bitset
      relations with word-wide kernels;
    - [`Delta] — incremental {!Dynfo_logic.Delta_eval}: re-evaluate each
      framed rule only on its dirty frontier (per the installed static
      support plan, see {!set_delta_planner}) and fall back to a full
      recompute past the [--delta-cutoff] budget;
    - [`Auto] — resolved per program by the installed chooser (see
      {!set_auto_chooser}); [`Tuple] until one is installed.

    All backends compute identical relations; they differ in cost model
    (atomic evaluations vs. machine words — see
    {!Dynfo_logic.Bulk_eval}) and constant factors. Every registry
    program runs unchanged on any of them. *)

val set_auto_chooser : (Program.t -> [ `Tuple | `Bulk | `Delta ]) -> unit
(** Install the per-program resolver behind [`Auto]. The core library
    cannot depend on the analysis layer, so the metrics-driven chooser
    is injected: [Dynfo_analysis.Advisor.install] calls this. *)

val set_delta_planner : (Program.t -> Delta_eval.program_plan) -> unit
(** Install the static support planner behind [`Delta] (the same
    injection pattern as {!set_auto_chooser}:
    [Dynfo_analysis.Advisor.install] registers
    [Dynfo_analysis.Support.plan]). Until then every program gets
    {!Dynfo_logic.Delta_eval.conservative_plan} — no frames, so
    [`Delta] behaves like [`Tuple]. Planners should memoize: the runner
    consults the planner on every step, and a state's frontier cache
    keeps one entry per physical rule plan it has evaluated. *)

val resolve_backend : Program.t -> backend -> [ `Tuple | `Bulk | `Delta ]
(** Resolve [`Auto] for a program via the installed chooser; the
    identity on concrete backends. *)

type commute_oracle = {
  co_swap : Request.t -> Request.t -> bool;
      (** May these two adjacent requests be transposed without changing
          the final structure? Must only answer [true] on a verified
          [Commute] verdict for the pair of operations (under the
          argument side conditions). *)
  co_elidable : Request.t -> bool;
      (** Does the request's op carry a verified redundant-request no-op
          law, so that a request which does not change the input
          (insert of a present tuple, delete of an absent one, set to
          the current value) may skip its update block entirely? *)
  co_dedupe : Request.t -> bool;
      (** Is the op verified idempotent ([r; r ≡ r]), so back-to-back
          identical queued requests may be collapsed to one? *)
  co_invisible : Request.t -> string option -> bool;
      (** Does the request leave the named query (or the program query,
          [None]) unaffected — i.e. does its op write no relation or
          constant the query formula reads? The serving layer uses this
          to let updates overtake pending queries. *)
}
(** The per-program commutation facts the batch planner and the serving
    layer may exploit. Every answer must be backed by a verified law:
    the conservative {!null_oracle} (all [false]) is always sound. *)

val null_oracle : commute_oracle
(** Trusts nothing; {!step_batch} degenerates to in-order evaluation. *)

val set_commute_oracle : (Program.t -> commute_oracle) -> unit
(** Install the per-program oracle (the same injection pattern as
    {!set_auto_chooser}: the core library cannot depend on the analysis
    layer, so [Dynfo_analysis.Commute.install] calls this with its
    model-checked matrix). Oracles should memoize: the runner asks on
    every batch. *)

val commute_oracle : Program.t -> commute_oracle
(** The installed oracle's verdict set for a program ({!null_oracle}
    until one is installed). *)

type defchange_verdict = [ `Absorb | `Fold ]
(** How a whole same-op group of a batch may be evaluated in one tick
    (the definable-change analysis's per-(program, op) classification):
    - [`Absorb] — apply the input changes only and skip the update block
      ({!absorb_group}); licensed by a model-checked law that the fold
      of the op's singletons equals exactly that;
    - [`Fold] — no verified law: the unchanged singleton fold, each
      member evaluating its own frontier. *)

val set_defchange_oracle :
  (Program.t -> [ `Ins | `Del | `Set ] -> string -> defchange_verdict) -> unit
(** Install the per-program definable-change oracle (the same injection
    pattern as {!set_commute_oracle}: [Dynfo_analysis.Defchange.install]
    calls this with its model-checked matrix). Until then every op
    answers [`Fold], so {!step_batch} evaluates exactly as before.
    Oracles must answer [`Fold] for any op they did not verify. *)

val defchange_verdict :
  Program.t -> [ `Ins | `Del | `Set ] -> string -> defchange_verdict
(** The installed oracle's verdict for one (program, op). *)

val absorb_group : state -> Request.t list -> state
(** The [`Absorb] path: apply each request's input change (insert /
    delete / set-constant) directly, skipping update blocks — default
    maintenance for a whole certified group. Exported so the Defchange
    analyzer model-checks {e this} code path against the singleton fold;
    the law and the exploitation cannot drift apart. Requests must be
    expanded singletons ([Invalid_argument] on a set request). *)

val op_key : Request.t -> [ `Ins | `Del | `Set ] * string
(** The operation a request belongs to: its update kind and input symbol
    (set requests map to their underlying kind — [Ins_def] to [`Ins]).
    The batch planner groups by this key; the Defchange analyzer reuses
    it to look verdicts up. *)

val plan_groups : Program.t -> Request.t list -> Request.t list list
(** The commute-aware batch plan: the request list reordered into
    same-operation groups, each request joining the most recent group of
    its op it can reach by oracle-approved adjacent transpositions.
    Concatenating the groups is equivalent to the original sequence;
    with the null oracle this is exactly the maximal same-op runs, in
    order. *)

val init :
  ?pool:Dynfo_engine.Pool.t -> ?cutoff:int -> Program.t -> size:int -> state
(** [f_n(empty)] — the initial state for universe [{0..size-1}],
    evaluating on [pool] (default {!Dynfo_engine.Pool.inline}). The pool
    is borrowed, not owned: several states may share one (their requests
    must not be interleaved from different threads), and shutting it
    down is the caller's business. [cutoff] (default
    {!Dynfo_engine.Pool.default_cutoff}) is the smallest tuple space, or
    dirty frontier, worth fanning out across the pool's lanes; every
    evaluator the state calls gets both, and [~cutoff:0] forces the
    fan-out. *)

val structure : state -> Structure.t
(** The full combined structure (input + auxiliary relations). *)

val input : state -> Structure.t
(** The input structure only — what [eval_{n,sigma}] of the paper denotes;
    this is what oracles judge. *)

val program : state -> Program.t

val step : ?work:int ref -> ?backend:backend -> state -> Request.t -> state
(** Apply one request. Raises [Invalid_argument] for requests that are not
    valid for the input vocabulary/universe. Requests that do not change
    the input (inserting a present tuple, deleting an absent one) are still
    processed through the update formulas — the paper's programs are
    written to be no-ops in that case, and tests check they are.
    [backend] selects the evaluator for temporaries and rules (default
    [`Tuple]); the step's work is added to [work]. *)

val run :
  ?work:int ref -> ?backend:backend -> state -> Request.t list -> state

val step_batch :
  ?work:int ref ->
  ?backend:backend ->
  ?oracle:commute_oracle ->
  ?defchange:([ `Ins | `Del | `Set ] -> string -> defchange_verdict) ->
  state ->
  Request.t list ->
  state
(** Apply an explicit batch as {e one evaluation tick} — the serving
    layer's coalescing unit. Guaranteed equal to
    [run ?backend s reqs] with set requests expanded against the tick's
    pre-state (the qcheck oracle asserts state equality on every
    registry program and backend), but atomic — every request is
    validated before anything runs, so an [Invalid_argument] leaves the
    state untouched — and amortised: validation and [`Auto] resolution
    happen once per batch, and the delta backend's memoized testers
    (in the state's frontier cache) compile at most once under the
    batch's first step and only rebind thereafter.

    With a commute oracle installed ({!set_commute_oracle}) the batch is
    additionally planned via {!plan_groups} — the delta backend then
    pays one block-plan lookup per {e group} instead of per contiguous
    same-op run — and input-preserving requests of ops with a verified
    no-op law are elided outright. With a defchange oracle installed
    ({!set_defchange_oracle}) each group is evaluated per its verdict:
    [`Absorb] groups via {!absorb_group}, [`Fold] (and anything
    uncertified) via the unchanged singleton fold. All transformations
    preserve the [run] equivalence by the oracles' verified laws.
    [defchange] overrides the installed oracle for this batch (the
    analyzer's model checker forces each verdict through here so the
    checked law exercises the exploited code path). The tick's work,
    set-request expansion included, is added to [work]; work the oracles
    do to answer (a cold model check) is not. *)

type batch_info = {
  bi_groups : int;  (** groups the batch planner produced *)
  bi_elided : int;  (** requests skipped by the verified no-op law *)
  bi_absorbed : int;  (** requests applied input-only ([`Absorb] groups) *)
  bi_streamed : int;
      (** always 0: every group absorbs or folds member by member. Kept
          because the serving benchmark's replay reads it. *)
}

val step_batch_full :
  ?backend:backend ->
  ?oracle:commute_oracle ->
  ?defchange:([ `Ins | `Del | `Set ] -> string -> defchange_verdict) ->
  state ->
  Request.t list ->
  state * int * batch_info
(** {!step_batch} plus the tick's work charge and planning counters —
    what the serving layer records per tick. The work is metered on a
    fresh counter per call, so it is the tick's own whatever runs
    concurrently. [oracle] overrides the installed oracle for this batch
    (the serving layer's FIFO mode passes {!null_oracle} to keep a
    measurable baseline). *)

val restore :
  ?pool:Dynfo_engine.Pool.t -> ?cutoff:int -> Program.t -> Structure.t -> state
(** Adopt a deserialized combined structure (snapshot restore) as the
    current state, evaluating on [pool] with [cutoff] as in {!init}, with
    an empty frontier cache. Raises
    [Invalid_argument] if the structure does not expose the program's
    whole input+aux vocabulary — the same check {!init} applies to
    [f_n(empty)]. *)

val query : ?work:int ref -> ?backend:backend -> state -> bool
(** Evaluate the program's boolean query sentence, its work added to
    [work]. *)

val query_named :
  ?work:int ref -> ?backend:backend -> state -> string -> int list -> bool
(** Evaluate a named parameterised query. Raises [Not_found] for unknown
    query names, [Invalid_argument] on arity mismatch. *)

val step_work : ?backend:backend -> state -> Request.t -> state * int
(** Like {!step} but also returns the work the update performed, metered
    on a fresh counter — atomic FO evaluations under [`Tuple], machine
    words under [`Bulk], a mix of both under [`Delta] (see
    {!Dynfo_logic.Eval}). *)

val run_work :
  ?backend:backend -> state -> Request.t list -> state * int list
(** {!run} with the work of {e each} step, in request order, each on a
    fresh counter — what [check --all] reports per step. *)
