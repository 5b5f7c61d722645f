(** A minimal JSON codec for the serving wire protocol and the
    analyzers' machine-readable reports.

    The container ships no JSON library, and the newline-delimited
    protocol of [Dynfo_server.Wire] needs only the standard scalar types
    plus arrays and objects — so this is a small hand-rolled codec
    rather than a dependency. Printing escapes every control character,
    so [to_string v] never contains a raw newline: a printed value is
    always exactly one wire line. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact (single-line) rendering. Non-finite floats print as
    [null] — they have no JSON representation. *)

val parse : string -> (t, string) result
(** Parse one complete JSON value; trailing non-whitespace is an error.
    Numbers without [.]/[e] parse as [Int] when they fit in an OCaml
    [int], else [Float]. [\u]-escapes (including surrogate pairs) decode
    to UTF-8. *)

(** {1 Accessors}

    Each returns [None] on a type mismatch — callers in {!Wire} turn
    that into a protocol error rather than an exception. *)

val member : string -> t -> t option
(** Field of an object ([None] for missing field or non-object). *)

val to_str : t -> string option

val to_int : t -> int option

val to_float : t -> float option
(** Accepts [Int] too (a reader of ["1"] as a float should not care how
    the writer spelled it). *)

val to_bool : t -> bool option

val to_list : t -> t list option
