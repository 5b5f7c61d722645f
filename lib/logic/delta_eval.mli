(** Incremental (delta) evaluation of update rules: re-evaluate a rule
    body only on the {e dirty frontier} — the tuples whose value can
    actually change this step — and splice the flips into the old value.

    The soundness device is the {b frame decomposition}. When a rule
    [R(x̄) <- B] syntactically contains its own target as a conjunct of
    one disjunct,

    {v B  ≡  (R(x̄) ∧ A) ∨ C v}

    then, whatever the request did, the new value at a current member is
    [A ∨ C] and at a non-member is [C] — a per-step identity with no
    history assumptions. Hence

    - frontier-out = members satisfying [¬(A ∨ C)] ⊆ members ∩ any upper
      bound of [¬(A ∨ C)];
    - frontier-in = non-members satisfying [C] ⊆ complement ∩ any upper
      bound of [C].

    The upper bounds arrive as {!sup} values computed statically by
    [Dynfo_analysis.Support] (this library cannot see programs or
    requests, so plans speak in relation names and closed terms): a
    {!slab} constrains some target coordinates to closed terms
    ({e pins}, e.g. [x = a] for an update parameter [a]), conditions the
    whole slab on closed subformulas ({e guards}, e.g. [¬F(a,b)] — a
    runtime switch that often empties the frontier entirely), and may
    enumerate the members of another — typically small or temporary —
    relation ({e anchor}, e.g. the [New(x,y)] replacement-edge temp of
    reach_u's delete block: this is how deltas chain from a temp to the
    rules consuming it). [Top] means unbounded; it is still capped by
    the member set (out side) or its complement (in side).

    The frontier is materialised as a {!Bitrel} dirty mask (slab fills
    dedupe overlapping patterns for free); if its size reaches
    [cutoff () * size^arity] the rule recomputes in full on the plan's
    fallback backend — the [--delta-cutoff] threshold. Frontier tuples
    are re-tested with the {e full} body via {!Eval.compile_tester}, so the
    support analysis only ever has to be an upper bound, never exact.
    Work accounting: mask words and anchor scans are charged as words,
    frontier re-tests as atomic evaluations — mixed units, like the
    tuple/bulk comparison of E20 — all to the caller's [?work]
    counter.

    {b Persistent frontier state} (E25): the per-step {e fixed} costs —
    tester and guard compilation, anchor re-enumeration, mask
    allocation and whole-space clears/popcounts — are amortised across
    steps in a {!cache} the caller owns ([Dynfo.Runner] gives each
    runner its own), one state per rule plan under the cache's lock:
    compiled testers are {!Eval.rebind}-ed, anchor contributions are
    patched from {!Relation.symmetric_diff}, and the mask is a
    persistent buffer whose dirty words (tracked by a word list) are
    cleared and recounted in O(frontier) per step. Frontiers of at most
    32 codes skip the mask entirely. All reuse is sound by construction
    — a frontier only ever has to {e contain} the flipping tuples, and
    the full body is re-tested on each — and the stateless {!frontier}
    builder remains the reference the qcheck equivalence law compares
    the stateful path against. *)

(** {1 Plans}

    Produced by [Dynfo_analysis.Support] and injected into the runner
    ([Dynfo.Runner.set_delta_planner]); interpreted here. *)

type pin = { coord : int; value : Formula.term }
(** Target coordinate [coord] must equal the runtime value of [value] —
    a closed term: an update parameter (via the environment), a
    structure constant, or a literal. *)

type anchor = {
  a_rel : string;  (** relation whose members seed the slab *)
  a_coords : (int * int) list;
      (** (member position [j], target coordinate [i]): coordinate [i]
          is pinned to component [j] of each member *)
  a_checks : (int * Formula.term) list;
      (** member position [j] must equal the closed term's value for the
          member to contribute *)
}

type slab = {
  s_guards : Formula.t list;
      (** closed subformulas (no free tuple variables); all must hold at
          this step, else the slab is empty *)
  s_pins : pin list;
  s_anchor : anchor option;
}

type sup = Top | Slabs of slab list
(** An upper bound on where a formula can hold over the rule's tuple
    space: the union of the slabs, or no bound at all. [Slabs []] is the
    empty bound (the formula can hold nowhere). *)

type frame = { f_out : sup; f_in : sup }
(** [f_out] bounds [¬(A ∨ C)] (members that may leave), [f_in] bounds
    [C] (non-members that may enter). *)

type rule_plan = {
  rp_target : string;
  rp_vars : string list;
  rp_body : Formula.t;
  rp_frame : frame option;  (** [None]: always recompute in full *)
}

type block_plan = rule_plan list

type program_plan = {
  pp_ins : (string * block_plan) list;
  pp_del : (string * block_plan) list;
  pp_set : (string * block_plan) list;
  pp_fallback : [ `Tuple | `Bulk ];
      (** backend for full recomputes: unframed rules, temporaries,
          over-budget frontiers, queries *)
}

val conservative_plan : program_plan
(** No block plans, fallback [`Tuple]: the delta backend degenerates to
    tuple-at-a-time evaluation. The default until an analysis planner is
    installed. *)

val block_for :
  program_plan -> [ `Ins | `Del | `Set ] -> string -> block_plan option

val rule_plan_for : block_plan -> string -> rule_plan option

(** {1 Cutoff} *)

val default_cutoff : float

val set_cutoff : float -> unit
(** Set the frontier budget as a fraction of the tuple space
    ([Invalid_argument] outside [\[0, 1\]]). [0.] forces every rule to
    full recompute; [1.] never falls back on size grounds. *)

val cutoff : unit -> float

(** {1 Evaluation} *)

type frontier =
  [ `Full
  | `Mask of Bitrel.t
  | `Mask_words of Bitrel.t * int list
  | `Tuples of Tuple.t list ]
(** [`Tuples] is the mask-free fast path: when the frontier resolves to
    at most 32 concrete tuples (a raw, pre-dedupe count calibrated by
    the E25 bench) — in particular the
    single-tuple-frontier shape of plain ins/del maintenance rules and
    0-ary targets, where every slab is anchorless and fully pinned —
    the codes are enumerated directly and no {!Bitrel} is touched: the
    per-step mask fills/popcounts, which cost O(space/word-size) even
    for a one-tuple frontier, disappear entirely. [`Mask_words] is the
    persistent-mask form of the stateful path ({!with_frontier},
    {!define}): the mask is only
    meaningful on the listed dirty words (it is zero elsewhere) and is
    {e borrowed} — it belongs to the {!cache} and is rewritten by the
    rule's next step. *)

val frontier :
  ?work:int ref ->
  Structure.t ->
  env:(string * int) list ->
  base:Relation.t ->
  rule_plan ->
  frontier
(** The {e stateless reference} frontier builder: resolve the plan's
    supports at this step (evaluate guards, pins and anchors against
    [st]/[env]) and build a fresh dirty mask over the tuple space of
    the rule; [`Tuples] when the fully-pinned fast path applies (still
    subject to the budget: a zero cutoff forces [`Full]); [`Full] when
    the rule has no frame, the estimated or actual frontier reaches the
    budget, or the tuple space overflows. [base] must be the target's
    pre-state value. Never returns [`Mask_words] and keeps no state —
    the qcheck law holds the incrementally-maintained frontier of
    {!with_frontier} equal to this one, step by step. Guard tests,
    anchor scans and mask fills are charged to [work]. *)

(** {1 Frontier state} *)

type cache
(** Persistent frontier state: one entry per physical {!rule_plan}
    (compiled body and guard testers, anchor caches, the dirty-mask
    buffer), built on the plan's first evaluation and reused by every
    later one, with its own lock. A state built for one universe size
    is replaced when the plan is evaluated at another. Uncapped: plans
    are memoized per program, so a cache holds at most one entry per
    framed rule of the programs evaluated through it. *)

val new_cache : unit -> cache
(** An empty cache. [Dynfo.Runner.init] and [Dynfo.Runner.restore]
    create one per runner; every state stepped from it shares it. *)

val with_frontier :
  cache:cache ->
  Structure.t ->
  ?env:(string * int) list ->
  rule_plan ->
  (frontier -> 'a) ->
  'a
(** [with_frontier ~cache st ~env plan f] applies [f] to the frontier
    {!define} would splice at this step, maintained incrementally in the
    rule's persistent state in [cache] — same emissions and budget
    decisions as {!frontier}, with the fixed per-step costs amortised.
    [f] runs under the cache's lock, for as long as a borrowed
    [`Mask_words] buffer stays valid; it must not re-enter this module.
    The qcheck law holding the warm state to the stateless {!frontier}
    reads frontiers this way. *)

val fast_hits : unit -> int
(** Process-lifetime count of fully-pinned single-tuple frontiers taken
    — how often the original mask-free fast path fired (tests and
    benches assert it does). A subset of {!small_frontier_hits}. *)

val small_frontier_hits : unit -> int
(** Process-lifetime count of [`Tuples] frontiers resolved by the
    stateful path — fully-pinned shapes {e and} the generalised
    explicit-code-list path for frontiers of at most 32 codes. *)

val mask_builds : unit -> int
(** Process-lifetime count of {!Bitrel} dirty masks allocated — a fresh
    build per step on the stateless/[Top] path, once per rule state on
    the persistent path; surfaced in [dynfo serve] stats and [check]
    output. *)

val mask_reuse_hits : unit -> int
(** Process-lifetime count of steps that refilled a persistent mask
    buffer in place instead of allocating — the tentpole counter of
    E25. *)

val words_cleared : unit -> int
(** Cumulative number of dirty mask words zeroed by persistent-mask
    refills — the O(frontier) replacement for reallocating and zeroing
    [n^k] bits per step. *)

val memo_hits : unit -> int

val memo_misses : unit -> int
(** Process-lifetime counts over every {!cache}: each compiles a
    framed rule's body tester on the plan's first evaluation (a miss)
    and {e rebinds} it to the step's structure thereafter (a hit;
    {!Eval.compile_tester}/{!Eval.rebind}) — compilation is amortised
    across the steps of a run and the requests of a batch. These
    counters expose the cache behaviour for tests and benches. *)

val define :
  ?work:int ref ->
  cache:cache ->
  ?fallback:[ `Tuple | `Bulk ] ->
  ?pool:Dynfo_engine.Pool.t ->
  ?cutoff:int ->
  Structure.t ->
  ?env:(string * int) list ->
  rule_plan ->
  Relation.t
(** Evaluate one rule: build its frontier in [cache] (as in
    {!with_frontier}) when the frame admits it and re-test the full body
    on every frontier tuple, splicing the flips into the target's old
    value; otherwise recompute in full on [fallback] ({!Eval.define} or
    {!Bulk_eval.define}, default [`Tuple], given the same [pool] and
    [cutoff]). Equal to that full recompute by the frame identity — the
    lockstep tests assert exactly that, structure-wide.

    The re-test is one kernel over frontier words (the mask's word range
    for [`Mask], its dirty words for [`Mask_words]) run by
    {!Dynfo_engine.Pool.parallel_for} on [pool]: on the default
    {!Dynfo_engine.Pool.inline} it splices directly; on more lanes, lane
    0 re-tests with the state's cached tester, every other lane compiles
    its own and collects its flips, and those flips are spliced after the
    job returns. Each lane counts its re-tests into a counter of its
    own, added into [work] after the job with the frontier's own charges
    (guards, anchors, mask words), so the work is the same on any pool.
    [`Tuples] frontiers and frontiers below [cutoff] tuples
    (default {!Dynfo_engine.Pool.default_cutoff}) never fan out. Every
    call clears the mask words its rule's previous step dirtied, so a
    step's frontier is its own.

    Compile-time errors of the body (unknown relation, arity, unbound
    variable) are raised exactly as a full evaluation would raise them,
    even when the frontier is empty. *)
