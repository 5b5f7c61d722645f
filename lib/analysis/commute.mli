(** Static update-commutativity analysis: which pairs of update
    operations may be transposed, which requests elided or deduplicated,
    and which updates are invisible to which queries — every verdict
    backed by bounded model checking before anyone is allowed to act on
    it.

    An {e operation} is an update entry point of the program: [ins R] /
    [del R] for each input relation, [set c] for each settable constant.
    For an ordered pair [(op1 a̅, op2 b̅)] the analysis decides
    {!Commute}, {!Conflict} or {!Unknown} — always under the
    {b distinct-argument side condition}: when both requests address the
    same input relation or constant, the verdict speaks only about
    distinct argument tuples (equal arguments are either the identical
    request, which trivially "commutes" with itself, or an
    insert/delete collision, which never does).

    Three layers:

    + {b syntactic} — the ops' read/write sets (rule targets plus the
      maintained input symbol; temp-expanded reads as in {!Dataflow},
      plus constants the bodies mention) are disjoint in both
      directions: [W₁ ∩ (R₂ ∪ W₂) = ∅] and [W₂ ∩ R₁ = ∅];
    + {b frames} — ops sharing write targets still commute when every
      shared target is written through an anchorless, fully self-pinned
      frame ({!Support}'s decomposition [B ≡ (R(x̄)∧A)∨C] with pin [i]
      = the op's own parameter [i]): distinct argument tuples then write
      disjoint cells, and the frame atom's self-read cannot observe the
      other op's write;
    + {b model checking} — the only layer that can {e promote} to
      {!Commute}. {!Mc} replays both orders over structures of size ≤ 4
      (exhaustive while the bit budget lasts, seeded sampling beyond,
      periodic bulk-backend cross-checks) on two domains: {e synthetic}
      structures with arbitrary auxiliary contents (a strict superset
      of anything reachable), and — when a synthetic counterexample
      exists — the {e reachable} states produced by seeded request
      prefixes from the initial state, which is the only domain the
      serving layer inhabits. A verdict confirmed merely on the
      reachable domain is tagged as such ({!cell.c_domain}).

    Anything unconfirmed degrades to {!Unknown}; every consumer
    ({!Dynfo.Runner.step_batch}'s planner, the session worker's
    coalescer) treats [Unknown] exactly like [Conflict], so the
    analysis failing closed can never change served answers.

    Per-op laws are verified the same way: {e idempotence} ([r; r ≡ r],
    licensing queue deduplication) and the {e redundant-request no-op}
    (a request that does not change the input leaves the whole
    structure unchanged, licensing elision). Query {e invisibility} is
    purely static — the op's exact write set against the symbols the
    query formula reads — and needs no model checking. *)

open Dynfo

(** {1 Operations} *)

type op = {
  op_kind : [ `Ins | `Del | `Set ];
  op_rel : string;  (** relation name for ins/del, constant name for set *)
  op_arity : int;  (** argument-tuple width; 1 for [set] (the value) *)
}

val op_name : op -> string
(** ["ins E"], ["set s"], … *)

val ops_of : Program.t -> op list
(** Every operation of the program, in input-vocabulary order. *)

val block_of : Program.t -> op -> Program.update option
(** The op's update block ([None]: default maintenance only). *)

val request_of : op -> int list -> Request.t
(** The op applied to an argument tuple ([set]: its single value). *)

(** {1 Verdicts} *)

type verdict = Commute | Conflict | Unknown

type source =
  | Syntactic  (** layer 1: disjoint read/write sets *)
  | Frames  (** layer 2: disjoint self-pinned frames *)
  | Mc_only  (** no static proof; the model checker decided alone *)

type cell = {
  c_left : op;
  c_right : op;
  c_verdict : verdict;  (** symmetric *)
  c_source : source;
  c_domain : Mc.domain option;  (** [Some] exactly on [Commute] *)
  c_checks : int;  (** model-checker state/argument combinations run *)
  c_exhaustive_upto : int;  (** sizes covered exhaustively (0 = none) *)
  c_reason : string;
}

type op_report = {
  or_op : op;
  or_writes : string list;  (** exact: targets + the maintained symbol *)
  or_reads : string list;  (** over-approximate, temp-expanded *)
  or_idempotent : Mc.law;
  or_nop : Mc.law;  (** the redundant-request no-op law *)
}

type matrix = {
  m_program : string;
  m_ops : op_report list;
  m_cells : cell list;  (** unordered pairs, diagonal included *)
}

val analyze :
  ?max_size:int -> ?budget:int -> ?samples:int -> Program.t -> matrix
(** Run the full analysis. [max_size] bounds the model-checked universe
    (default 4), [budget] the exhaustive-enumeration combinations per
    size (default 20_000), [samples] the sampled structures per size
    beyond it (default 48). Deterministic: all sampling is seeded. *)

val matrix_of : Program.t -> matrix
(** {!analyze} with defaults, memoized per program by physical identity
    (thread-safe — the serving layer warms it at session creation). *)

val verdict : matrix -> op -> op -> verdict
(** The (symmetric) cell verdict; {!Unknown} for ops outside the
    matrix. *)

val find_cell : matrix -> op -> op -> cell option
val op_report : matrix -> op -> op_report option

(** {1 The runner oracle} *)

val oracle_of : Program.t -> Runner.commute_oracle
(** The memoized matrix wrapped as the runner's oracle: [co_swap]
    answers from {!verdict} (enforcing the side condition on concrete
    arguments), [co_elidable]/[co_dedupe] from the verified op laws,
    [co_invisible] from the static write-set/query-read disjointness. *)

val install : unit -> unit
(** Register {!oracle_of} via {!Dynfo.Runner.set_commute_oracle} — the
    same injection pattern as [Advisor.install]. *)

(** {1 Rendering} *)

val verdict_string : verdict -> string
val source_string : source -> string

val pp : Format.formatter -> matrix -> unit
(** Human-readable grid plus per-op laws and per-cell reasons. *)

val to_json : matrix -> Json.t
(** Machine-readable report (schema [version]: {!Report.version}). *)
