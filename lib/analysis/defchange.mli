(** Definable-change analysis: statically verified batch update plans.

    Classifies, per (program, update op), which whole-batch evaluation
    strategies {!Dynfo.Runner.step_batch} may use for a same-op group
    of a coalesced tick:

    - [Absorb] — apply the input changes and skip the update block
      ({!Dynfo.Runner.absorb_group}): default maintenance for the whole
      group;
    - [Stream] — fold the members under one
      {!Dynfo_logic.Delta_eval} batch scope, so the group accumulates a
      single dirty mask instead of clearing and rebuilding one per
      member;
    - [Fold] — no verified law: the unchanged singleton fold;
    - [Unknown] — nothing checked (e.g. [--mc-size 0]); always treated
      as unsafe, i.e. exactly like [Fold], and rejected by [--strict].

    Three evidence layers, in the PR-4 verified-rewrite discipline:
    static layers (1, syntactic: no rule reads the written symbol, so
    members cannot observe each other; 2, frame-based: every rule
    carries a slab frame from its {!Support} plan) only {e nominate} —
    layer 3, the bounded model checker {!Mc}, is the only thing that
    grants a verdict. It runs the exploited code paths themselves
    ([absorb_group] and [step_batch ~defchange] with the verdict
    forced) against the singleton-sequence fold over batches of 1–3
    members — exhaustive over synthetic structures while the budget
    lasts, seeded sampling beyond, reachable-state fallback — and
    additionally checks the FO-definable set-change forms
    ([insdef]/[deldef] whose formula denotes exactly the member tuples)
    against their explicit expansion. *)

open Dynfo

(** {1 Operations} *)

val op_name : Commute.op -> string
val ops_of : Program.t -> Commute.op list

(** {1 Verdicts} *)

type source = Commute.source = Syntactic | Frames | Mc_only

type verdict = Absorb | Stream | Fold | Unknown

type cell = {
  d_op : Commute.op;
  d_verdict : verdict;
  d_source : source;
  d_domain : Mc.domain option;
      (** the granting law's domain; [Some] exactly on [Absorb]/[Stream] *)
  d_checks : int;  (** model-checker combinations across all three laws *)
  d_exhaustive_upto : int;  (** granting law's exhaustive size bound *)
  d_absorb : Mc.law;  (** group ≡ input-only application *)
  d_stream : Mc.law;  (** group ≡ fold under one delta batch scope *)
  d_definable : Mc.law;
      (** [insdef]/[deldef] ≡ explicit expansion; trivial (0 checks)
          for [set] ops, which have no set form *)
  d_reason : string;
}

type matrix = { m_program : string; m_cells : cell list }

val analyze :
  ?max_size:int -> ?budget:int -> ?samples:int -> Program.t -> matrix
(** Run the full analysis. [max_size] bounds the model-checked universe
    (default 4; [0] checks nothing and yields all-[Unknown], which
    [--strict] rejects), [budget] the exhaustive state×argument
    combinations per size (default 20_000), [samples] the sampled
    structures per size beyond it (default 48). Deterministic: all
    sampling is seeded. *)

val matrix_of : Program.t -> matrix
(** Memoized {!analyze} with defaults (keyed on physical program
    identity, bounded cache) — what {!oracle_of} consults per batch. *)

val find_cell :
  matrix -> [ `Ins | `Del | `Set ] -> string -> cell option

val verdict : matrix -> [ `Ins | `Del | `Set ] -> string -> verdict
(** [Unknown] for ops absent from the matrix. *)

(** {1 The runner oracle} *)

val oracle_of :
  Program.t -> [ `Ins | `Del | `Set ] -> string -> Runner.defchange_verdict
(** The per-op verdict mapped onto the runner's exploitation:
    [Absorb]/[Stream] pass through, [Fold] and [Unknown] both answer
    [`Fold] — unverified means unsafe. *)

val install : unit -> unit
(** [Runner.set_defchange_oracle oracle_of] — after this every
    [step_batch] consults the model-checked matrix. *)

(** {1 Rendering} *)

val verdict_string : verdict -> string
val source_string : source -> string
val pp : Format.formatter -> matrix -> unit
val to_json : matrix -> Json.t
(** One JSON object per program:
    [{"version": …, "program": …, "cells": [{"op", "arity", "verdict",
    "source", "domain", "checks", "exhaustive_upto", "absorb",
    "stream", "definable", "reason"}]}]. *)
