(* [Dynfo_server.Json] keeps naming the codec, which lives in the core
   library so the analyzers' [--json] reports share it. *)
include Dynfo.Json
