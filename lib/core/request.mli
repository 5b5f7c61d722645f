(** Requests to a dynamic structure (Equation 3.1 of the paper):

    [R_{n,sigma} = { ins(i, a), del(i, a), set(j, a) }]

    — insert tuple [a] into relation [R_i], delete it, or set constant
    [c_j] to [a].

    Beyond the paper's single-tuple changes, a request can name a whole
    {e set} of tuples: an explicit list ([Ins_set]/[Del_set]) or an
    FO-definable set ([Ins_def]/[Del_def]) in the sense of "Dynamic
    Complexity under Definable Changes" — a change formula [phi(x1..xk)]
    evaluated over the current structure selects the tuples to insert or
    delete. Set requests are syntactic sugar with exact semantics: they
    {!expand} to a singleton sequence against the structure at the start
    of the evaluation tick, and the tick folds that sequence (the
    Defchange analysis then licenses faster equivalent evaluations). *)

type t =
  | Ins of string * Dynfo_logic.Tuple.t
  | Del of string * Dynfo_logic.Tuple.t
  | Set of string * int
  | Ins_set of string * Dynfo_logic.Tuple.t list
      (** insert every listed tuple (one tick) *)
  | Del_set of string * Dynfo_logic.Tuple.t list
      (** delete every listed tuple (one tick) *)
  | Ins_def of string * string list * Dynfo_logic.Formula.t
      (** [Ins_def (R, vars, phi)]: insert [{ x | phi(x) }] minus [R],
          with [phi]'s parameters bound to [vars] *)
  | Del_def of string * string list * Dynfo_logic.Formula.t
      (** [Del_def (R, vars, phi)]: delete [{ x | phi(x) }] inter [R] *)

val ins : string -> int list -> t
val del : string -> int list -> t
val set : string -> int -> t
val ins_set : string -> int list list -> t
val del_set : string -> int list list -> t
val ins_def : string -> string list -> Dynfo_logic.Formula.t -> t
val del_def : string -> string list -> Dynfo_logic.Formula.t -> t

val is_batch : t -> bool
(** Is this a set request (needs {!expand} before singleton evaluation)? *)

val valid : Dynfo_logic.Vocab.t -> size:int -> t -> bool
(** Does the request name a symbol of the vocabulary, with the right arity,
    and components inside the universe? For FO-defined sets this also
    checks the change formula: parameters distinct and not shadowing
    constants, every relation atom declared with the right arity, every
    free identifier a parameter or a constant symbol — so expansion
    cannot raise inside a serving worker. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string

val parse : string -> t
(** Inverse of {!pp}: accepts ["ins R (1,2)"], ["del E (0,3)"],
    ["set s 4"], ["ins* M (1) (2) (3)"], ["del* E (0,1) (2,3)"], and
    ["insdef E (x, y) : E(y, x) & x != y"] / ["deldef ..."] — the change
    formula after [':'] in {!Dynfo_logic.Parser} syntax ({!pp} prints it
    back in the same syntax, so requests round-trip textually, wire
    protocol included). Raises [Failure] on malformed input. *)

(** {1 Batches}

    A batch is an explicit list of requests applied as {e one evaluation
    tick} ([Runner.step_batch]): the serving layer's unit of coalescing.
    Semantically a batch is the sequential composition of its singletons
    — set requests expanded against the tick's pre-state first; the
    oracle tests assert exactly that — applied atomically (an invalid
    member rejects the whole batch before anything runs). *)

val valid_batch : Dynfo_logic.Vocab.t -> size:int -> t list -> bool
(** Every member {!valid}. *)

val batch_to_string : t list -> string
(** The [';']-joined singleton forms — ["ins E (0,1); del E (2,3)"].
    Unambiguous: request texts never contain [';'] (the formula grammar
    has no [';'] token). *)

val parse_batch : string -> t list
(** Inverse of {!batch_to_string}; skips empty segments, so a trailing
    [';'] and the empty string are fine (the latter is the empty batch).
    Raises [Failure] on a malformed member. *)

val expand : ?work:int ref -> Dynfo_logic.Structure.t -> t -> t list
(** The singleton sequence a request denotes against [st]. Single-tuple
    requests are themselves; [Ins_set]/[Del_set] map to their lists in
    order; [Ins_def]/[Del_def] evaluate the change formula over [st]
    ({!Dynfo_logic.Bulk_eval.bitrel}, its words charged to [work]) and
    return the selected tuples {e not already at their target value}
    (insert: minus the current relation; delete: inter it), sorted for
    determinism. Requires the request {!valid} for [st]'s vocabulary. *)

val expand_batch :
  ?work:int ref -> Dynfo_logic.Structure.t -> t list -> t list
(** [List.concat_map (expand ?work st)] — every member selected against
    the same pre-state, the "definable changes" simultaneous reading. *)
