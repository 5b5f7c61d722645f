(** Verified optimization of update formulas.

    The rewrite kernels live in {!Dynfo_logic.Transform}; this module
    applies them under verification, so an optimizer bug can only cost a
    missed optimization, never a wrong program:

    - {b structurally}: a rewritten formula must keep its relation atoms
      resolvable (against the vocabulary plus the block's temporaries),
      must not grow new free variables, and must not contain empty
      quantifier blocks;
    - {b semantically}: the rewritten formula is model-checked equivalent
      to the original on {e every} structure over its support relations
      up to a size cutoff (while the state count fits the budget; seeded
      random sampling beyond), under every assignment of free variables
      and constants, cross-checking {!Dynfo_logic.Eval} and
      {!Dynfo_logic.Bulk_eval}.

    A rewrite failing either check is rejected and reported — the
    original formula is kept. Whole programs additionally get
    common-subformula extraction into temporaries (verified at block
    level) and a randomized end-to-end differential check
    ({!check_equivalence}). *)

type pass = { pass_name : string; transform : Dynfo_logic.Formula.t -> Dynfo_logic.Formula.t }

val default_passes : pass list
(** [const-fold], [simplify], [prune-quantifiers], [one-point],
    [miniscope] — in application order. *)

type counterexample = {
  cex_size : int;
  cex_env : (string * int) list;
  cex_structure : string;  (** printed structure *)
  before_value : bool;
  after_value : bool;
}

val pp_counterexample : Format.formatter -> counterexample -> unit

type rejection = {
  rej_path : string;  (** rule path, e.g. ["on_ins E / rule PV"] *)
  rej_pass : string;
  rej_reason : string;
}

type stats = {
  checks : int;  (** semantic comparisons performed *)
  exhaustive_upto : int;
      (** every structure/assignment up to this size was enumerated
          (0 when nothing was verified exhaustively) *)
}

val verify_equiv :
  vocab:Dynfo_logic.Vocab.t ->
  ?extra_rels:(string * int) list ->
  ?max_size:int ->
  ?budget:int ->
  ?samples:int ->
  Dynfo_logic.Formula.t ->
  Dynfo_logic.Formula.t ->
  (stats, counterexample) result
(** [verify_equiv ~vocab before after] model-checks the two formulas
    equivalent as described above. [extra_rels] declares temporaries
    (name, arity) readable by the formulas; their contents are
    enumerated like any relation's. [max_size] (default 4) caps the
    universe; [budget] (default 60000) bounds per-size exhaustive
    enumeration; [samples] (default 240) is the per-size sample count
    beyond the budget. *)

val verify_block :
  vocab:Dynfo_logic.Vocab.t ->
  params:string list ->
  ?max_size:int ->
  ?budget:int ->
  ?samples:int ->
  Dynfo.Program.update ->
  Dynfo.Program.update ->
  bool * stats
(** [verify_block ~vocab ~params before after] is [true] when both
    blocks give every rule target the same relation on every checked
    structure over [vocab] (constants included) and assignment of
    [params] — as {!verify_equiv}, with defaults [max_size] 3,
    [budget] 2000, [samples] 48. *)

type outcome = {
  result : Dynfo_logic.Formula.t;
  applied : string list;  (** passes that fired and verified *)
  rejected : rejection list;
  stats : stats;
}

val optimize_formula :
  ?passes:pass list ->
  vocab:Dynfo_logic.Vocab.t ->
  ?extra_rels:(string * int) list ->
  ?max_size:int ->
  ?budget:int ->
  ?samples:int ->
  path:string ->
  Dynfo_logic.Formula.t ->
  outcome
(** Run the pass pipeline to a bounded fixpoint, verifying every pass
    application; a pass whose output fails verification is skipped (and
    recorded in [rejected]) while the remaining passes continue from the
    last verified formula. *)

type change = {
  chg_path : string;
  chg_before : Dynfo_logic.Formula.t;
  chg_after : Dynfo_logic.Formula.t;
  chg_passes : string list;
}

type program_report = {
  original : Dynfo.Program.t;
  optimized : Dynfo.Program.t;
  changes : change list;
  rejections : rejection list;
  cse_temps : (string * string list) list;
      (** block path, names of extracted temporaries *)
  stats : stats;
  work_before : int;  (** max work exponent, pre-optimization *)
  work_after : int;
  size_before : int;  (** total formula size *)
  size_after : int;
}

val optimize_program :
  ?passes:pass list ->
  ?max_size:int ->
  ?budget:int ->
  ?samples:int ->
  ?cse:bool ->
  Dynfo.Program.t ->
  program_report
(** Optimize every temporary, rule and query body of the program (each
    verified as in {!optimize_formula}), then extract common subformulas
    of each update block into temporaries ([cse], default [true]; the
    rewritten block is verified against the original by evaluating both
    on synthetic structures over the full program vocabulary). The
    result is re-validated by [Program.validate]. *)

val check_equivalence :
  ?size:int ->
  ?length:int ->
  ?seeds:int list ->
  Dynfo.Program.t ->
  Dynfo.Program.t ->
  (int, string) result
(** Randomized end-to-end differential check: run both programs over
    seeded random request sequences (generated from the input
    vocabulary) and compare query answers after every request via
    {!Dynfo.Harness.compare_all}. [Ok] carries the number of checkpoints
    compared. *)
