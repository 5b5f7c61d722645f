(** The bounded model checker behind every analyzer verdict:
    {!Commute}'s and {!Defchange}'s laws and {!Rewrite}'s equivalences
    are properties of a structure and a list of argument tuples, checked
    on two domains:

    - {e synthetic} structures — every relation bit pattern × constant
      value × argument tuple while that count fits the budget, seeded
      sampling beyond. Auxiliary contents are arbitrary, a strict
      superset of anything reachable;
    - a program's {e reachable} states — seeded request prefixes from
      its initial state, the only states a serving session can hold. *)

open Dynfo_logic
open Dynfo

val pow : int -> int -> int
(** [pow b e] is [b{^e}] ([e >= 0]). *)

type result = {
  mc_checks : int;  (** admissible combinations checked *)
  mc_exhaustive_upto : int;
      (** every combination up to this size was enumerated (0 = none) *)
  mc_cex : (int * int list list) option;
      (** the first failure: universe size, argument tuples *)
}

val synthetic :
  seed:int ->
  draws:int ->
  ?pre:(Structure.t -> int list list -> bool) ->
  max_size:int ->
  budget:int ->
  samples:int ->
  arities:int list ->
  check:(Structure.t -> int list list -> bool) ->
  Vocab.t ->
  result
(** Check [check] on structures over the vocabulary of sizes
    [1..max_size], one argument tuple per entry of [arities]. A size is
    enumerated exhaustively when its bit patterns × constant values ×
    argument tuples number at most [budget]; otherwise [samples] random
    structures, each with [draws] random argument lists, are drawn from
    an RNG seeded with [seed], the size and the bit count. Combinations
    failing [pre] are not counted; the run stops at the first failure. *)

val workload_spec : Program.t -> Workload.spec
(** The program's input vocabulary as a random-workload spec. *)

val reachable : max_size:int -> Program.t -> (int * Structure.t) list
(** Sized states after 0, 6, 16 and 32 requests of three seeded
    workloads per size [1..max_size]. Memoized per (program identity,
    [max_size]): a repeated lookup returns the same list. *)

val memo : ('k -> 'k -> bool) -> ('k -> 'v) -> 'k -> 'v
(** [memo same f] caches [f] on its 64 latest keys ([same] is key
    equality). The lock is held while [f] runs, so concurrent first
    lookups compute once; [f] must not re-enter the same memo. *)

(** {1 Laws} *)

type domain =
  | Synthetic  (** arbitrary auxiliary contents — the stronger claim *)
  | Reachable  (** request prefixes from the initial state only *)

type law = {
  law_holds : bool;
  law_domain : domain;  (** meaningful when [law_holds] *)
  law_checks : int;
}

val verify_law :
  seed:int ->
  max_size:int ->
  budget:int ->
  samples:int ->
  ?pre:(Structure.t -> int list list -> bool) ->
  Program.t ->
  shapes:int list list ->
  check:(Structure.t -> int list list -> bool) ->
  domain option * result * law
(** Check a law for every argument shape (e.g. batch sizes 1–3) on
    synthetic structures over the program's vocabulary (4 draws per
    sample), then — unless that confirmed it — on {!reachable}. The
    law holds, in the returned domain, when a phase ends with no
    failure and at least one check. Across shapes the first failure
    wins and the exhaustive bound is the weakest. *)

(** {1 Rendering} *)

val pp_args : int list list -> string
(** ["(0,1); (2)"] *)

val domain_string : domain -> string

val domain_desc : domain option -> result -> string
(** ["on synthetic structures (N checks, exhaustive to n=K)"], ["on
    reachable states only (N checks)"] or ["nowhere"]. *)

val pp_law : Format.formatter -> string * law -> unit
(** ["what (synthetic, N checks)"], ["what (trivial)"] for a law that
    holds with no checks, or ["not what"]. *)

val law_to_json : law -> Json.t
