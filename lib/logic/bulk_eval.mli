(** Set-at-a-time evaluation of first-order formulas over dense bitset
    relations — the bulk backend.

    Where {!Eval.define} enumerates every tuple of the target space and
    runs a compiled closure per tuple (a membership test per atom), this
    evaluator works bottom-up over whole relations: each subformula is
    materialised as one {!Bitrel.t} over the variables {e in scope} at
    that node (the formula's free variables followed by the enclosing
    quantifier blocks, innermost last — so quantified coordinates are
    the fastest-varying ones of the {!Tuple.encode} layout). Then

    - relation atoms are materialised once by cylindrifying the stored
      relation into the scope ({!Bitrel.set_slab} per member tuple,
      after selecting on constant arguments and repeated variables);
    - [=], [<=], [<] and [BIT] between two scope variables come from
      numeric bitrels precomputed per (universe size, predicate) —
      [min]/[max]/literals are resolved to constants first;
    - [∧ ∨ ¬ → ↔] are word-wide bitwise kernels;
    - [∃]/[∀] are strided word OR/AND reductions ({!Bitrel.project})
      that drop the trailing (innermost) coordinates.

    This is the CRAM[1] circuit of the update formula evaluated level by
    level with word-level parallelism — 1 bit of hardware per tuple —
    instead of a sequential walk of the same circuit's inputs.

    {b Work accounting}: every kernel charges the machine words it
    processes to the caller's [?work] counter, as {!Eval} charges its
    atomic evaluations — the same counter, in different units (words
    here, atomic evaluations there). A word kernel is charged once, for
    its whole destination, after its pool job. Reductions are charged as
    if no early exit fired, making the count deterministic.

    Identifier resolution, exceptions and edge-case semantics
    (out-of-range numeric literals, [BIT] beyond [Sys.int_size],
    repeated variables in [vars]) match {!Eval} exactly; the QCheck
    equivalence suite pins this down.

    Memory: a node over scope of width [w] allocates [n^w] bits, so the
    peak is [n^(k + rank)] bits along the deepest quantifier path — the
    same exponent the static analyzer reports as the rule's CRAM work
    ([Dynfo_analysis.Metrics]). {!Bitrel.create} raises
    [Invalid_argument] if that overflows [max_int]. *)

val define :
  ?work:int ref ->
  ?pool:Dynfo_engine.Pool.t ->
  ?cutoff:int ->
  Structure.t ->
  vars:string list ->
  ?env:(string * int) list ->
  Formula.t ->
  Relation.t
(** Drop-in replacement for {!Eval.define}: the relation
    [{ (x1,...,xk) | st |= f(x1,...,xk) }]. Every word kernel runs over
    its destination's words through {!Bitrel.parallel_words} on [pool]:
    one call on the default {!Dynfo_engine.Pool.inline}, page-aligned
    chunks on more lanes — one level of the update formula's CRAM[1]
    circuit split into disjoint word ranges, [bits_per_word] tuples per
    word by the bitset and [lanes] words at a time by the pool. Atom
    materialisation stays on the calling domain (it is member-sparse and
    write-racy to split). Results and the words charged to [work] do not
    depend on the pool. Target spaces smaller than [cutoff] (default
    {!Dynfo_engine.Pool.default_cutoff}) run inline. *)

val bitrel :
  ?work:int ref ->
  ?pool:Dynfo_engine.Pool.t ->
  Structure.t ->
  vars:string list ->
  ?env:(string * int) list ->
  Formula.t ->
  Bitrel.t
(** Like {!define} but keeps the dense form (no sparse conversion), and
    fans out on any multi-lane [pool] (no cutoff). *)

val holds :
  ?work:int ref ->
  ?pool:Dynfo_engine.Pool.t ->
  Structure.t ->
  ?env:(string * int) list ->
  Formula.t ->
  bool
(** Drop-in replacement for {!Eval.holds} (a 0-ary {!bitrel}): no
    cutoff, since the quantifier scopes inside a sentence can still be
    large. *)
