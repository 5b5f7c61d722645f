open Dynfo_logic

type t = { name : string; create : int -> unit -> instance }
and instance = { apply : Request.t -> unit; query : unit -> bool }

let of_program ?pool ?cutoff ?(backend = `Tuple) (p : Program.t) =
  (* resolve [`Auto] once, at wrap time, so the chooser is not consulted
     on every request *)
  let resolved = (Runner.resolve_backend p backend :> Runner.backend) in
  let create n () =
    let state = ref (Runner.init ?pool ?cutoff p ~size:n) in
    {
      apply = (fun req -> state := Runner.step ~backend:resolved !state req);
      query = (fun () -> Runner.query ~backend:resolved !state);
    }
  in
  let tag =
    match (backend, resolved) with
    | `Tuple, _ -> ""
    | `Bulk, _ -> "bulk"
    | `Delta, _ -> "delta"
    | `Auto, `Bulk -> "auto:bulk"
    | `Auto, `Delta -> "auto:delta"
    | `Auto, _ -> "auto:tuple"
  in
  let name =
    match (pool, tag) with
    | None, "" -> p.name
    | None, tag -> p.name ^ "[" ^ tag ^ "]"
    | Some _, "" -> p.name ^ "[par]"
    | Some _, tag -> p.name ^ "[par-" ^ tag ^ "]"
  in
  { name; create }

let of_fun ~name ~create ~apply ~query =
  let create n () =
    let state = ref (create n) in
    {
      apply = (fun req -> state := apply !state req);
      query = (fun () -> query !state);
    }
  in
  { name; create }

let static ~name ~input_vocab ~symmetric_rels ~oracle =
  let create n () =
    let st = ref (Structure.create ~size:n input_vocab) in
    let flip tup =
      Array.init (Array.length tup) (fun i ->
          if i = 0 then tup.(1) else if i = 1 then tup.(0) else tup.(i))
    in
    {
      apply =
        (fun req ->
          let rec go st req =
            match req with
            | Request.Ins (r, tup) when List.mem r symmetric_rels ->
                Structure.add_tuple (Structure.add_tuple st r tup) r (flip tup)
            | Request.Del (r, tup) when List.mem r symmetric_rels ->
                Structure.del_tuple (Structure.del_tuple st r tup) r (flip tup)
            | Request.Ins (r, tup) -> Structure.add_tuple st r tup
            | Request.Del (r, tup) -> Structure.del_tuple st r tup
            | Request.Set (c, a) -> Structure.with_const st c a
            | Request.Ins_set _ | Request.Del_set _ | Request.Ins_def _
            | Request.Del_def _ ->
                (* set requests: fold the singleton expansion, so natives
                   stay lockstep-comparable with batch-taking runners *)
                List.fold_left go st (Request.expand st req)
          in
          st := go !st req);
      query = (fun () -> oracle !st);
    }
  in
  { name; create }
