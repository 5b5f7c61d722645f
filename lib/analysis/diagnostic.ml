type severity = Error | Warning | Info

type t = {
  severity : severity;
  program : string;
  path : string;
  message : string;
}

let make severity ~program ~path fmt =
  Printf.ksprintf (fun message -> { severity; program; path; message }) fmt

let is_error d = d.severity = Error

let severity_string = function
  | Error -> "error"
  | Warning -> "warning"
  | Info -> "info"

let severity_rank = function Error -> 0 | Warning -> 1 | Info -> 2

let compare a b =
  let c = Int.compare (severity_rank a.severity) (severity_rank b.severity) in
  if c <> 0 then c
  else
    let c = String.compare a.program b.program in
    if c <> 0 then c
    else
      let c = String.compare a.path b.path in
      if c <> 0 then c else String.compare a.message b.message

let pp ppf d =
  Format.fprintf ppf "%s: %s: %s: %s"
    (severity_string d.severity)
    d.program d.path d.message

let to_string d = Format.asprintf "%a" pp d

let to_json d =
  Dynfo.Json.(
    Obj
      [
        ("severity", Str (severity_string d.severity));
        ("program", Str d.program);
        ("path", Str d.path);
        ("message", Str d.message);
      ])
