(** Evaluation of first-order formulas over finite structures.

    Formulas are compiled once into closures (variable names are resolved
    to slots of a mutable environment array, relation symbols to the
    structure's relations), then evaluated by enumerating quantifier
    witnesses over the universe with short-circuiting.

    Identifier resolution: an identifier is a variable if it is bound by an
    enclosing quantifier or listed in the supplied environment; otherwise it
    must be a constant symbol of the structure. Anything else raises
    {!Unbound_variable} at compile time.

    A global {e work counter} counts atomic-formula evaluations. Since
    FO = CRAM[1] (uniform CRCW-PRAM with polynomial hardware, constant
    time), this counter is the sequential simulation cost of the parallel
    evaluation — the resource that the paper's Corollary 5.7 relates to
    [CRAM[n]]. Benchmarks report it alongside wall-clock time.

    The counter is {e domain-safe}: every domain increments a private
    counter (no contention on the hot path) and {!work} aggregates them,
    so totals stay exact when {!define} runs on a multi-lane pool. One
    caveat follows from the implementation: a compiled closure charges
    the domain that compiled it, so cross-domain hand-off of compiled
    formulas mis-attributes (but never loses) work. *)

exception Unbound_variable of string
(** An identifier is neither a bound variable, an environment entry, nor a
    constant symbol of the structure. *)

exception Unknown_relation of string
(** A relation atom names a symbol the structure's vocabulary does not
    declare. The payload is a complete message in the same shape as
    {!Vocab.Unknown_symbol}:
    [unknown relation symbol "F" in vocabulary <E^2, s, t>]. *)

exception Arity_error of string
(** A relation atom's argument count differs from the symbol's declared
    arity. *)

val holds : Structure.t -> ?env:(string * int) list -> Formula.t -> bool
(** [holds st ~env f] — truth of [f] in [st] under the assignment [env]
    for its free variables. *)

val define :
  ?pool:Dynfo_engine.Pool.t ->
  ?cutoff:int ->
  Structure.t ->
  vars:string list ->
  ?env:(string * int) list ->
  Formula.t ->
  Relation.t
(** [define st ~vars ~env f] is the relation
    [{ (x1,...,xk) | st |= f(x1,...,xk) }] where [vars = [x1;...;xk]].
    Extra free variables of [f] must be covered by [env] or by constant
    symbols. This is how a dynamic program computes the new value of an
    auxiliary relation from an update formula.

    The candidate tuples are enumerated by one kernel over their prefix
    codes (the first two coordinates), run by
    {!Dynfo_engine.Pool.parallel_for} on [pool] — the CRAM side of
    FO = CRAM[1]. On the default {!Dynfo_engine.Pool.inline} that is the
    plain sequential enumeration; on more lanes each lane compiles its
    own closure, enumerates its chunks and keeps its own hits, merged
    once at the end. Every candidate is tested exactly once in either
    case, so the relation {e and} the FO work count are the same on any
    pool. Tuple spaces smaller than [cutoff] (default
    {!Dynfo_engine.Pool.default_cutoff}) run inline; [~cutoff:0] forces
    the fan-out (tests do). Must not be given a multi-lane pool from
    inside one of that pool's jobs: the pool is not reentrant. *)

(** {1 Rebindable testers}

    A {!compiled} tester decides [st |= f(x1,...,xk)] for one tuple at a
    time — the membership test {!define} enumerates — and resolves
    relation and constant symbols through ref cells: {!rebind} repoints
    it at a later structure of the {e same universe size} in O(symbols),
    no recompilation. This is how the delta backend amortises tester
    compilation across the steps of a run (and across the requests of a
    batch): compile once per rule, rebind per step.

    Work attribution caveat: the compiled closure charges the domain
    that compiled it (see the header comment), and it owns a mutable
    slot array, so a tester must stay on its compiling domain — the
    delta backend's pool lanes other than lane 0 compile their own for
    exactly this reason. *)

type compiled

val compile_tester :
  Structure.t ->
  vars:string list ->
  ?env:(string * int) list ->
  Formula.t ->
  compiled
(** Compile [f] once for tuples bound to [vars]. Raises the same
    compile-time errors as {!define} ({!Unknown_relation},
    {!Arity_error}, {!Unbound_variable}). *)

val rebind : compiled -> Structure.t -> env:(string * int) list -> unit
(** Repoint every relation and constant symbol at [st] and reload the
    environment values. Raises [Invalid_argument] when [st]'s size or
    the environment's names (order-sensitive) differ from compile time,
    and {!Unknown_relation} / {!Unbound_variable} when a symbol the
    formula uses is missing from [st] — the same error a fresh
    compilation against [st] would raise. *)

val test_compiled : compiled -> Tuple.t -> bool
(** Membership test under the latest {!rebind}. Raises
    [Invalid_argument] on tuple arity mismatch. *)

val work : unit -> int
(** Atomic evaluations performed since the last {!reset_work}, summed
    across all domains. *)

val reset_work : unit -> unit

val add_work : int -> unit
(** [add_work k] charges [k] units of work to the calling domain's
    counter. The set-at-a-time backend ({!Bulk_eval}) uses this to
    charge the {e words} its bitwise kernels process, so both backends
    report through the same counter — with different units: atomic
    evaluations tuple-at-a-time, machine words set-at-a-time. *)

val with_work : (unit -> 'a) -> 'a * int
(** [with_work f] runs [f] and returns its result together with the number
    of atomic evaluations it performed, without resetting the global
    counter — so nested and sequential scopes compose, unlike the
    [reset_work]/[work] pair. (Concurrent scopes on distinct domains still
    observe each other's work; scope one measurement at a time.) *)
