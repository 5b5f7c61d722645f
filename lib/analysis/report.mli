(** One program's complete analysis: diagnostics, cost metrics,
    dataflow, and the backend advice derived from them.

    This is the unit of output of [dynfo_cli analyze] and the CI gate:
    a registry is healthy when every program's report {!is_clean}.
    Liveness findings from {!Dataflow} are reported here but are {e not}
    diagnostics — a dead auxiliary relation is wasted work, not a
    soundness bug. *)

type t = {
  program : string;
  diagnostics : Diagnostic.t list;
  metrics : Metrics.t;
  dataflow : Dataflow.t;
  advice : Advisor.advice;
}

val version : int
(** Schema version of the JSON rendering. *)

val of_program : Dynfo.Program.t -> t
(** Runs {!Check.program}, {!Metrics.of_program},
    {!Dataflow.of_program} and {!Advisor.of_program}. *)

val errors : t -> int
val warnings : t -> int

val is_clean : t -> bool
(** No diagnostics at all. *)

val ok : t -> strict:bool -> bool
(** No errors; with [~strict:true], no warnings either. *)

val pp_summary : Format.formatter -> t -> unit
(** One line: [reach_u: ok — 8 rules, work n^5] or
    [reach_u: 2 errors, 1 warning]. *)

val pp : Format.formatter -> t -> unit
(** Diagnostics (one per line), then the metrics table, a dataflow
    summary and the backend advice. *)

val to_json : t -> Dynfo.Json.t
