(** Backend advisor: a static recommendation of which evaluation
    backend ([--backend tuple|bulk]) and parallel cutoff to run a
    program under, derived from its {!Metrics}.

    Heuristic, calibrated against the E20 measurements in
    EXPERIMENTS.md: the dense bitset backend wins once the update work
    reaches [n^5] ({!Dynfo_engine.Pool.default_cutoff}-sized tuple
    spaces stop fitting the short-circuit evaluator's sweet spot),
    {e unless} the bodies lean on [BIT] — arithmetic atoms degrade the
    word kernels to per-bit probes (mult is ~30x faster on the tuple
    backend).

    Since PR 5 the advisor also knows the incremental backend: when
    {!Support.eligible} holds (every update rule framed, supports
    bounded or guarded) it recommends [`Delta], with the tuple/bulk
    heuristic above retained as the delta backend's {e fallback} for
    temporaries and over-budget frontiers (E22 calibration).

    The advice feeds the [`Auto] backend: {!install} registers
    {!choose} as {!Dynfo.Runner.set_auto_chooser} and the memoized
    {!Support.plan} as {!Dynfo.Runner.set_delta_planner}, after which
    [Dyn.of_program ~backend:`Auto] (with or without a pool) resolves
    to the recommended backend per program. *)

type advice = {
  program : string;
  backend : [ `Tuple | `Bulk | `Delta ];
  fallback : [ `Tuple | `Bulk ];
      (** full-recompute backend: what [`Delta] uses for temporaries,
          unframed rules and over-budget frontiers — and the advice
          itself when the program is not delta-eligible *)
  par_cutoff : int;  (** {!Dynfo_engine.Pool.default_cutoff} *)
  max_work_exponent : int;
  bit_fraction : float;  (** BIT atoms / all atoms, over every body *)
  reason : string;  (** one-line human-readable justification *)
}

val delta_estimates : Dynfo.Program.t -> size:int -> int * int * int
(** [(rules, frontier, space)] static per-step estimates for the worst
    (largest tuple-space) update block at a concrete universe size:
    framed-rule count, frontier upper bound in tuples (a pinned
    anchorless slab is a single cell, an anchored slab scans at most
    the universe, partial pins leave the unpinned coordinates free) and
    the full-recompute tuple space. The bench's E24 calibration pass
    fits {!Calibration.t} against these. *)

val of_program :
  ?size:int ->
  ?calibration:Calibration.t ->
  Dynfo.Program.t ->
  advice
(** [size] arms the wall-clock-aware cutoff (E24): at that concrete
    universe size the advisor estimates the worst block's per-step
    frontier from the {!Support} plan and keeps [`Delta] only while it
    stays below {!Calibration.break_even} — a tiny universe's fixed
    mask overhead, or an anchored frontier approaching the tuple
    space, flips the advice back to the full backend. Without [size]
    the recommendation is purely static (delta-eligibility), as
    before. *)

type repr_choice = {
  rc_name : string;
      (** relation symbol, or ["(scope)"] for the widest rule scope *)
  rc_arity : int;
  rc_words : int;
      (** dense word count of the [n^arity] space; [max_int] when the
          space overflows the native integer (dense allocation would
          raise) *)
  rc_repr : [ `Dense | `Paged ];
}

val repr_plan : Dynfo.Program.t -> size:int -> repr_choice list
(** Dense-vs-paged recommendation per (relation, [size]), plus one row
    for the widest rule scope — the tuple space {!Dynfo_logic.Bulk_eval}
    materializes per formula node, which is the first allocation to
    break the dense ceiling as [n] grows. The threshold is exactly
    {!Dynfo_logic.Bitrel.auto_repr}'s ({!Dynfo_logic.Bitrel.auto_words_limit}
    dense words), so the advice and the allocator never drift. Runtime
    occupancy (the page counters [check] and the daemon's [stats]
    expose) refines this observationally but never changes the static
    choice. *)

val pp_repr_plan : size:int -> Format.formatter -> repr_choice list -> unit

val choose : Dynfo.Program.t -> [ `Tuple | `Bulk | `Delta ]
(** [(of_program p).backend]. *)

val fallback_of : Dynfo.Program.t -> [ `Tuple | `Bulk ]
(** [(of_program p).fallback]. *)

val install : unit -> unit
(** Register {!choose} with {!Dynfo.Runner.set_auto_chooser} and the
    support planner (with {!fallback_of}) with
    {!Dynfo.Runner.set_delta_planner}, so both the [`Auto] and the
    [`Delta] backends resolve through the static analysis. *)

val backend_string : [ `Tuple | `Bulk | `Delta ] -> string
val pp : Format.formatter -> advice -> unit
val to_json : ?repr_plan:int * repr_choice list -> advice -> Dynfo.Json.t
(** [bit_fraction] is rounded to 3 decimals; [repr_plan] (a size and
    its {!repr_plan}) adds a ["repr_plan"] field. *)
