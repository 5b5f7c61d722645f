(** Inter-rule dataflow of a dynamic program: who reads what, who
    defines what, and what that implies for liveness and for the
    parallel engine.

    Every update rule [R(x̄) <- body] {e writes} its target and
    {e reads} the relations named in its body — with temporaries
    expanded, so a rule consuming [New] is charged with the pre-state
    relations [New]'s definition read. From the per-rule access sets
    three derived facts are computed:

    - the {b relation-dependency graph} ([edges]: target → read), with a
      DOT rendering ({!pp_dot}) for [dynfo_cli analyze --graph];
    - {b liveness}: the backward closure of the query reads along
      defining-rule edges. An auxiliary relation outside the closure
      can never influence a query answer ([dead_rels]), and the rules
      maintaining it are wasted work ([dead_rules]);
    - {b write-after-read hazards}: a relation rewritten by a block and
      read (pre-state) inside the same block. Such blocks force the
      two-phase commit {!Dynfo_engine.Par_runner} performs; a block with
      no hazards could commit its writes eagerly in place. *)

type rule_node = {
  path : string;  (** e.g. ["on_ins E / rule PV"] *)
  block : string;  (** e.g. ["on_ins E"] *)
  target : string;
  is_temp : bool;
  reads : string list;
      (** pre-state relations read, temporaries expanded *)
}

type hazard = {
  hz_block : string;
  hz_rel : string;  (** relation both written and read in the block *)
  hz_writer : string;  (** path of the writing rule *)
  hz_readers : string list;  (** paths of the reading rules *)
}

type t = {
  program : string;
  inputs : string list;  (** input-vocabulary relation names *)
  auxes : string list;  (** auxiliary-vocabulary relation names *)
  nodes : rule_node list;
  edges : (string * string) list;
      (** [(target, read)] pairs, deduplicated, program order *)
  query_reads : string list;
  live : string list;
  dead_rels : string list;
  dead_rules : string list;
  hazards : hazard list;
}

val of_program : Dynfo.Program.t -> t

val pp_names : Format.formatter -> string list -> unit
(** Comma-separated, ["(none)"] when empty. *)

val pp : Format.formatter -> t -> unit
val pp_dot : Format.formatter -> t -> unit
(** GraphViz rendering: input relations as boxes, auxiliaries as
    ellipses (dead ones dashed gray), the query as a diamond; edges
    point in the direction of dataflow (read relation → target). *)

val to_json : t -> Dynfo.Json.t
