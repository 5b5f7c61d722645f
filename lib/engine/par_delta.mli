(** Parallel incremental evaluation: {!Dynfo_logic.Delta_eval} with the
    dirty frontier chunked over the domain {!Pool} by mask-word ranges
    (see {!Dynfo_logic.Bitrel.iter_codes_between} — distinct ranges
    partition the frontier, so lanes are embarrassingly parallel).
    Frontiers below [cutoff] (or a 1-lane pool) splice sequentially;
    full-recompute fallbacks go through {!Par_eval} / {!Par_bulk}
    according to the plan's fallback backend. *)

open Dynfo_logic

val define :
  Pool.t ->
  cache:Delta_eval.cache ->
  ?cutoff:int ->
  ?batch:Delta_eval.batch ->
  Structure.t ->
  env:(string * int) list ->
  fallback:[ `Tuple | `Bulk ] ->
  Delta_eval.rule_plan ->
  Relation.t
(** Same result as [Delta_eval.define ~cache ~fallback st ~env plan]
    (the lockstep tests assert it at 1/2/4 lanes), through the same
    frontier state in [cache]. [cutoff] is the frontier
    size (in tuples) below which the splice stays sequential — the
    engine-wide {!Par_eval.default_cutoff} by default. [batch] joins a
    {!Dynfo_logic.Delta_eval} batch scope: the accumulated [`Mask_words]
    frontier is fanned across lanes exactly like a per-step one. *)
