(** The µs calibration table behind {!Advisor}'s wall-clock-aware
    frontier cutoff (E24). The constants are measured by the bench's
    calibration pass and checked in; {!break_even} turns them into the
    largest frontier size at which the incremental backend still beats
    a full recompute for a given per-step tuple space. Re-fitted after
    the persistent-frontier rewrite (E25): the old [mask_build_us]
    constant — a fresh tester compile plus a full mask build per rule
    per step — became [setup_us], the much smaller amortised cost of a
    state lookup, tester rebind and dirty-word bookkeeping. *)

type t = {
  setup_us : float;
      (** fixed per-framed-rule per-step cost (state lookup + tester
          rebind + support resolution + frontier bookkeeping) *)
  retest_us : float;  (** per frontier-tuple full-body re-test *)
  full_tuple_us : float;  (** per-tuple cost of a full recompute *)
}

val default : t
(** The checked-in table (CI reference machine, 1 core). *)

val break_even : ?c:t -> rules:int -> space:int -> unit -> float
(** Break-even frontier size in tuples for a step evaluating [rules]
    framed rules over a combined tuple space of [space]; negative when
    the fixed overhead alone exceeds the full recompute. *)

val to_json : t -> Dynfo.Json.t
