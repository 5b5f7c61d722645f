(** Dense bitset relations: the set-at-a-time representation behind the
    bulk evaluation backend.

    A [Bitrel.t] holds a relation of arity [k] over universe
    [{0,...,n-1}] as a packed bitvector of [n^k] bits, one per tuple,
    indexed by {!Tuple.encode} (row-major: the {e last} component varies
    fastest). On this layout the boolean connectives of an update
    formula become word-wide bitwise kernels and quantifiers become
    strided OR/AND folds over blocks of consecutive bits — the
    circuit-level data parallelism of FO = CRAM[1] made concrete
    (Corollary 5.7; cf. the work-sensitive reading of Schmidt et al.).

    Values are {e mutable} buffers: the pure constructors
    ({!of_relation}, {!union}, ...) allocate fresh ones, while the
    [*_into] kernels write a word range of an existing destination in
    place. Every kernel is {b chunk-addressable}: it takes a
    [\[word_lo, word_hi)] range of word indices so the parallel engine
    can split one logical operation across domains — distinct word
    ranges never touch the same memory, so lanes need no
    synchronisation.

    Invariant: the unused tail bits of the last word are always zero
    (kernels that involve complement re-mask them), so {!equal} and
    {!popcount} can work word-wise.

    Since PR 10 the word space has two physical representations behind
    this one interface. The {e dense} store is the packed [int array]
    above. The {e paged} store (DESIGN S28) splits the words into
    fixed {!page_words}-word pages held in a flat table; untouched
    pages are implicitly zero, saturated pages collapse to a shared
    all-ones sentinel, and every kernel gets a skip-absent fast path —
    so memory and work follow the pages actually touched, not the
    [n^k] tuple space (the work-sensitive reading of Schmidt et al.).
    Which store a fresh relation gets is decided by {!repr}: the
    default [`Auto] stays dense below {!auto_words_limit} words and
    pages above it. Both representations are observationally
    identical; a qcheck harness drives random kernel sequences against
    both and asserts equality. *)

type t

val bits_per_word : int
(** Bits packed per word ([Sys.int_size]: 63 on 64-bit). *)

type repr = [ `Auto | `Dense | `Paged ]
(** Physical representation of the word space: [`Dense] one packed
    array, [`Paged] a first-touch page table, [`Auto] dense iff the
    slab stays under {!auto_words_limit} words. *)

val page_words : int
(** Words per page of the paged store (64, i.e. 4032 bits). *)

val auto_words_limit : int
(** The [`Auto] threshold: slabs of at most this many words are dense
    (2^21 words = 16 MB — everything the dense-only era could touch). *)

val set_default_repr : repr -> unit
(** Set the representation {!create}/{!full}/{!of_relation}/{!of_bytes}
    use ([`Auto] initially). The benches and the qcheck equivalence
    harness force [`Dense]/[`Paged] through this. *)

val default_repr : unit -> repr

val auto_repr : size:int -> arity:int -> [ `Dense | `Paged ]
(** What [`Auto] resolves to at these dimensions — exposed so the
    {!Dynfo_analysis} advisor reports the same choice the kernels
    make. *)

val create : size:int -> arity:int -> t
(** The empty relation: [size^arity] zero bits, in the default
    representation. Raises [Invalid_argument] if [size <= 0],
    [arity < 0] or the tuple space overflows [max_int]. *)

val create_repr : repr -> size:int -> arity:int -> t
(** {!create} with an explicit representation choice. *)

val full : size:int -> arity:int -> t
(** All [size^arity] bits set. On the paged store this is O(pages):
    every page becomes the shared all-ones sentinel, no words are
    allocated. *)

val full_repr : repr -> size:int -> arity:int -> t

val repr_of : t -> [ `Dense | `Paged ]

val page_count : t -> int
(** Pages in the table (0 for a dense relation). *)

val pages_resident : t -> int
(** Pages currently backed by an owned 64-word array — the relation's
    real memory footprint; sentinel (all-zero / all-ones) pages are
    free. 0 for a dense relation. *)

val occupancy : t -> float
(** [pages_resident / page_count] (1.0 for a dense relation, whose slab
    is always fully materialized). *)

val pages_allocated : unit -> int
(** Process-wide count of owned pages allocated (first touch + copy-on-
    write) since the last {!reset_page_counters} — the page-table
    telemetry [check] and the daemon stats report. *)

val skip_hits : unit -> int
(** Process-wide count of page-granular kernel fast paths taken (zero /
    all-ones pages answered without touching words). *)

val reset_page_counters : unit -> unit

val copy : t -> t

val size : t -> int
(** Universe size [n]. *)

val arity : t -> int

val length : t -> int
(** Number of bits, i.e. [n^arity] — the tuple space. *)

val word_count : t -> int
(** Number of words; the index space of the chunk-addressable kernels. *)

val get_word : t -> int -> int
(** The word at an index in [\[0, word_count t)] (unchecked); [0] on an
    absent page. *)

(** {1 Single-tuple access} *)

val mem : t -> Tuple.t -> bool
(** Raises [Invalid_argument] on arity mismatch or out-of-range
    components (via {!Tuple.encode}). *)

val add : t -> Tuple.t -> unit
(** Set one tuple's bit, in place. *)

val remove : t -> Tuple.t -> unit

val mem_code : t -> int -> bool
(** Membership by encoded index. Raises [Invalid_argument] if the code
    is outside [\[0, length t)]. *)

val set_code : t -> int -> unit

(** {1 Whole-relation queries} *)

val popcount : t -> int
(** Number of member tuples (16-bit-table population count, word-wise). *)

val popcount_words : t -> int list -> int
(** Population count restricted to the listed word indices (which must
    be distinct for the sum to be a member count). Raises
    [Invalid_argument] on an index outside [\[0, word_count t)]. The
    delta backend's persistent frontier masks count only their dirty
    words this way — O(frontier words) instead of O(space words). *)

val clear_words : t -> int list -> unit
(** Zero the listed words in place ([Invalid_argument] on an index
    outside [\[0, word_count t)]). With the dirty-word list recorded by
    {!set_slab}'s [record] callback, this resets a persistent mask in
    O(words touched last step) instead of reallocating [n^k] bits. On a
    paged store every touched page left all-zero returns to the absent
    sentinel (checked once per page), so a long-lived mask's
    {!pages_resident} does not grow under churn. *)

val is_empty : t -> bool

val equal : t -> t -> bool
(** Same size, arity and members. *)

val iter_codes : (int -> unit) -> t -> unit
(** Visit the encoded index of every member, in increasing order. *)

val iter_codes_between : (int -> unit) -> t -> word_lo:int -> word_hi:int -> unit
(** {!iter_codes} restricted to the members whose bits fall in the words
    [\[word_lo, word_hi)] — the chunk-addressable form the delta
    backend's splice uses to split a dirty-frontier mask across pool
    lanes (distinct word ranges partition the members). Raises
    [Invalid_argument] on a range outside [\[0, word_count t\]]. *)

val parallel_words :
  Dynfo_engine.Pool.t ->
  lo:int ->
  hi:int ->
  (lane:int -> int -> int -> unit) ->
  unit
(** [parallel_words pool ~lo ~hi body] is {!Dynfo_engine.Pool.parallel_for}
    over the word range [\[lo, hi)] with chunks of whole pages (about
    eight per lane): one [body ~lane:0 lo hi] call on a one-lane pool.
    With [lo] page-aligned, no two lanes write one page, so the word
    kernels ({!blit_op}, {!complement_into}, {!project}) may run per
    chunk on a paged destination without synchronisation, and a chunked
    pass skips exactly the absent pages a whole-range pass would. *)

val iter_members : (Tuple.t -> unit) -> t -> unit
(** Visit every member as a decoded (freshly allocated) tuple. *)

(** {1 Converters} *)

val of_relation : size:int -> Relation.t -> t
(** Dense form of a sparse {!Relation.t}. Lossless; raises
    [Invalid_argument] if a stored tuple has a component outside
    [{0,...,size-1}]. *)

val to_relation : t -> Relation.t
(** Sparse form; [to_relation (of_relation ~size r) = r]. *)

(** {1 Word-level kernels}

    The [*_into] forms compute [dst.(w) <- kernel a.(w) b.(w)] for [w]
    in [\[word_lo, word_hi)]; operands must agree on size and arity
    ([Invalid_argument] otherwise). [dst] may alias an operand. The
    convenience forms allocate a fresh destination and run over the
    whole word range. *)

type op = [ `Union | `Inter | `Diff | `Implies | `Iff ]
(** [`Diff a b] is [a land lnot b]; [`Implies a b] is [lnot a lor b];
    [`Iff] is the complement of xor — the kernels of [∨ ∧ ∧¬ → ↔]. *)

val blit_op : op -> dst:t -> t -> t -> word_lo:int -> word_hi:int -> unit

val complement_into : dst:t -> t -> word_lo:int -> word_hi:int -> unit

val union : t -> t -> t
val inter : t -> t -> t
val diff : t -> t -> t
val complement : t -> t

(** {1 Strided fills and reductions} *)

val fill_range : ?record:(int -> int -> unit) -> t -> lo:int -> hi:int -> unit
(** Set bits [\[lo, hi)] (bit indices), word-wise. Raises
    [Invalid_argument] on a range outside [\[0, length t)]. [record], if
    given, is called with the touched word range [\[word_lo, word_hi)]
    before the bits are written — the hook persistent dirty masks use to
    learn which words to {!clear_words} next step. *)

val set_slab : ?record:(int -> int -> unit) -> t -> (int * int) list -> int
(** [set_slab t \[(c1,v1); ...\]] sets every bit whose tuple has
    component [v_i] at coordinate [c_i] — the cylinder over the
    unconstrained coordinates. Coordinates must be distinct, in
    [\[0, arity)], with values in [\[0, size)] ([Invalid_argument]
    otherwise). Runs of unconstrained trailing coordinates are filled as
    contiguous word ranges. Returns the number of words written (the
    work charge of the fill); [record] is forwarded to every underlying
    {!fill_range}. This is how the bulk evaluator cylindrifies an
    atom's stored tuples into the enclosing quantifier scope. *)

val lift_pattern : dst:t -> pattern:t -> int
(** Tile a pattern across a larger tuple space. [pattern] covers the
    trailing [j] coordinates of [dst] (so
    [length dst = n^(arity dst - j) * length pattern]); every bit [i] of
    [dst] is set to bit [i mod length pattern] of the pattern — the
    cylinder of the pattern over the free {e prefix} coordinates.
    [dst] must be freshly zero. Runs word-level (doubling blits with
    shift-and-or), so a suffix-constrained atom costs
    [O(length dst / bits_per_word)] instead of one bit-fill per prefix
    tuple. Returns the number of words written (0 for an empty
    pattern). Raises [Invalid_argument] on size mismatch or if
    [length pattern] does not divide [length dst]. *)

val any_in : t -> lo:int -> hi:int -> bool
(** OR-fold of bits [\[lo, hi)]: word-wise with early exit. *)

val all_in : t -> lo:int -> hi:int -> bool
(** AND-fold of bits [\[lo, hi)]; [true] on the empty range. *)

val project : [ `Or | `And ] -> block:int -> src:t -> dst:t -> word_lo:int -> word_hi:int -> unit
(** Quantifier elimination over trailing coordinates: writes the words
    [\[word_lo, word_hi)] of [dst], where bit [i] of [dst] is the
    OR/AND-fold of the [block] consecutive source bits
    [\[i*block, (i+1)*block)]. With the {!Tuple.encode} layout,
    projecting out the last [j] coordinates is exactly this with
    [block = n^j] — so [∃] is [`Or] and [∀] is [`And]. Requires
    [src] and [dst] to share the universe size and
    [length src = block * length dst]. *)

(** {1 Serialization}

    The dense half of the snapshot format ([Dynfo_server.Snapshot]): a
    relation's slab dumped as raw words, 8 bytes little-endian each —
    the sign extension of a 63-bit native word (a word with bit 62 set
    is a negative OCaml int). *)

val to_bytes : t -> string
(** [word_count t * 8] bytes; the exact slab contents. *)

val of_bytes : size:int -> arity:int -> string -> t
(** Inverse of {!to_bytes} given the (externally stored) dimensions.
    Raises [Invalid_argument] on a length mismatch, a word that is not
    a sign-extended 63-bit value, nonzero bits past the tuple space, or
    a host whose word size is not 63 bits — a corrupted or foreign slab
    never loads silently. *)

val pp : Format.formatter -> t -> unit
