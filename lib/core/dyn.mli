(** Uniform interface for dynamic-problem implementations.

    Every problem in this repository exists in up to three forms that all
    implement this interface:

    - the {e FO form}: a {!Program.t} run by {!Runner} (the paper's claim),
    - a {e native form}: a hand-coded incremental data structure
      maintaining the same auxiliary information, used to scale benchmarks,
    - the {e static baseline}: recompute the answer from scratch on the
      input structure after every request.

    The test harness checks all available forms agree on randomized
    request sequences; the benchmarks compare their per-update costs. *)

type t = {
  name : string;
  create : int -> unit -> instance;
      (** [create n] makes a fresh instance factory for universe size [n] *)
}

and instance = {
  apply : Request.t -> unit;  (** mutate in place *)
  query : unit -> bool;
}

val of_program :
  ?pool:Dynfo_engine.Pool.t ->
  ?cutoff:int ->
  ?backend:Runner.backend ->
  Program.t ->
  t
(** Wrap an FO program (imperatively, by holding the evolving state).
    [backend] (default [`Tuple]) selects the update-formula evaluator —
    see {!Runner.backend}; [pool] and [cutoff] are passed to
    {!Runner.init}. The name tells the variants apart in harness
    mismatch reports: ["<program>[bulk]"], ["<program>[delta]"],
    ["<program>[auto:delta]"], and with a pool ["<program>[par]"],
    ["<program>[par-bulk]"], ["<program>[par-auto:delta]"] and so on. *)

val of_fun :
  name:string ->
  create:(int -> 'st) ->
  apply:('st -> Request.t -> 'st) ->
  query:('st -> bool) ->
  t
(** Wrap a persistent implementation. *)

val static :
  name:string ->
  input_vocab:Dynfo_logic.Vocab.t ->
  symmetric_rels:string list ->
  oracle:(Dynfo_logic.Structure.t -> bool) ->
  t
(** The recompute-from-scratch baseline: maintains only the input
    structure and calls [oracle] on every query. Relations listed in
    [symmetric_rels] are kept symmetric in their first two components —
    inserts and deletes apply to both orientations, matching the paper's
    convention for undirected graphs (for weighted edges [E(x,y,w)], the
    weight component is left in place). *)
