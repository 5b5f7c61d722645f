(** Structured findings of the static analyzer.

    A diagnostic pinpoints one defect (or notable fact) of a dynamic
    program: which program, where in it ([path], e.g.
    ["on_ins E / rule PV"]), and what is wrong. Severities:

    - [Error]: the program is ill-formed — running it will raise, or
      silently compute the wrong relation (e.g. a last-wins duplicate
      target in a simultaneous block);
    - [Warning]: legal but hazardous, especially under the parallel
      engine (e.g. a rule redefining an input relation other than the
      updated one);
    - [Info]: nothing wrong, surfaced for visibility. *)

type severity = Error | Warning | Info

type t = {
  severity : severity;
  program : string;  (** program name, e.g. ["reach_u"] *)
  path : string;  (** location inside the program, e.g. ["on_ins E / rule PV"] *)
  message : string;
}

val make :
  severity -> program:string -> path:string -> ('a, unit, string, t) format4 -> 'a
(** [make sev ~program ~path fmt ...] builds a diagnostic with a
    [Printf]-formatted message. *)

val is_error : t -> bool

val severity_string : severity -> string
(** ["error"], ["warning"], ["info"]. *)

val compare : t -> t -> int
(** Orders by severity (errors first), then program, path, message. *)

val pp : Format.formatter -> t -> unit
(** [error: reach_u: on_ins E / rule PV: ...] — one line. *)

val to_string : t -> string

val to_json : t -> Dynfo.Json.t
(** One JSON object: [{"severity": ..., "program": ..., "path": ...,
    "message": ...}]. *)
