(* A dynamic social network: members befriend and unfriend each other,
   and between events we answer "are these two members connected?" and
   "is the network bipartite (two-colourable)?" without ever recomputing
   from scratch — the scenario the paper's introduction motivates
   ("a fairly large object being worked on over a period of time").

   The same request stream drives three implementations side by side:
   the paper's first-order program, the native forest structure, and a
   recompute-everything baseline; the example asserts they agree and
   reports how much first-order work the updates cost.

   Run with: dune exec examples/social_network.exe *)

open Dynfo
open Dynfo_programs

let n_members = 12
let n_events = 220

let () =
  Printf.printf "Social network with %d members, %d friendship events\n\n"
    n_members n_events;
  let rng = Random.State.make [| 2024 |] in
  let events = Reach_u.workload rng ~size:n_members ~length:n_events in

  (* three implementations, one request stream; the FO runner's steps
     charge their work to [total_work] *)
  let fo = ref (Runner.init Reach_u.program ~size:n_members) in
  let native = Reach_u.native.create n_members () in
  let baseline = Reach_u.static.create n_members () in

  let disagreements = ref 0 in
  let connected_count = ref 0 in
  let total_work = ref 0 in
  List.iteri
    (fun i req ->
      fo := Runner.step ~work:total_work !fo req;
      native.apply req;
      baseline.apply req;
      let a = Runner.query !fo and b = native.query ()
      and c = baseline.query () in
      if a <> b || b <> c then incr disagreements;
      if a then incr connected_count;
      if i < 8 || i mod 50 = 0 then
        Printf.printf "  event %3d: %-14s connected(s,t) = %b\n" i
          (Request.to_string req) a)
    events;

  Printf.printf "\n%d/%d query points answered 'connected'\n" !connected_count
    n_events;
  Printf.printf "implementations disagreed %d times (expected 0)\n"
    !disagreements;
  Printf.printf "average FO work per event: %d atom evaluations\n"
    (!total_work / n_events);

  (* community structure: switch to the bipartiteness program to watch
     the "two rival camps" property appear and disappear *)
  print_endline "\nBipartiteness of the same event stream:";
  let bip = (Dyn.of_program Bipartite_prog.program).create n_members () in
  let flips = ref 0 in
  let last = ref true in
  List.iter
    (fun req ->
      bip.apply req;
      let now = bip.query () in
      if now <> !last then begin
        incr flips;
        last := now
      end)
    events;
  Printf.printf "bipartite at the end: %b (status flipped %d times)\n" !last
    !flips;
  if !disagreements > 0 then exit 1
