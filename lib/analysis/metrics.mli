(** Cost metrics of a dynamic program — the work measures of Schmidt et
    al., {e Work-sensitive Dynamic Complexity of Formal Languages}
    (2021), computed statically.

    For a rule [target(x1..xk) <- body] the engine enumerates the
    [n^k] candidate tuples and evaluates [body] on each, itself a
    [n^quantifier_rank] enumeration — so one update costs
    [O(n^(k + rank))] atomic evaluations sequentially, and constant
    CRAM time on [n^(k + rank)] processors. {!formula_metrics.work_exponent}
    is that exponent; the program-level {!t.max_work_exponent} bounds the
    hardware of the CRAM[1] evaluator, which is exactly the space
    {!Dynfo_logic.Eval.define} partitions across a pool's domains. *)

type formula_metrics = {
  path : string;  (** e.g. ["on_ins E / rule PV"] or ["query"] *)
  target : string;  (** relation or query being defined *)
  tuple_exponent : int;  (** [k]: tuple variables — the [n^k] space *)
  quantifier_rank : int;  (** {!Dynfo_logic.Formula.quantifier_rank} *)
  alternation_depth : int;  (** {!Dynfo_logic.Formula.alternation_depth} *)
  formula_size : int;  (** AST nodes *)
  width : int;  (** distinct variables, tuple variables included *)
  work_exponent : int;  (** [tuple_exponent + quantifier_rank] *)
  opt_quantifier_rank : int;
      (** quantifier rank after {!Dynfo_logic.Transform.optimize} — a
          static estimate (the pure rewrite kernels, unverified); the
          verified pipeline is {!Rewrite.optimize_program} *)
  opt_work_exponent : int;  (** [tuple_exponent + opt_quantifier_rank] *)
}

type t = {
  program : string;
  rules : formula_metrics list;
      (** temporaries and rules of every update block, in program order *)
  queries : formula_metrics list;  (** the query, then named queries *)
  rule_count : int;
  max_tuple_exponent : int;
  max_quantifier_rank : int;
  max_alternation_depth : int;
  max_work_exponent : int;
  max_opt_work_exponent : int;
  total_formula_size : int;
}

val of_program : Dynfo.Program.t -> t

val pp : Format.formatter -> t -> unit
(** Human-readable per-rule table with the program-level maxima. *)

val to_json : t -> Dynfo.Json.t
