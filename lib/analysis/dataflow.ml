open Dynfo_logic
open Dynfo

type rule_node = {
  path : string;
  block : string;
  target : string;
  is_temp : bool;
  reads : string list;
}

type hazard = {
  hz_block : string;
  hz_rel : string;
  hz_writer : string;
  hz_readers : string list;
}

type t = {
  program : string;
  inputs : string list;
  auxes : string list;
  nodes : rule_node list;
  edges : (string * string) list;
  query_reads : string list;
  live : string list;
  dead_rels : string list;
  dead_rules : string list;
  hazards : hazard list;
}

let dedup xs =
  List.rev
    (List.fold_left
       (fun acc x -> if List.mem x acc then acc else x :: acc)
       [] xs)

let reads_of body = dedup (List.map fst (Formula.rel_atoms body))

let rel_names v = List.map (fun (s : Vocab.sym) -> s.Vocab.name) (Vocab.relations v)

let of_program (p : Program.t) =
  let nodes = ref [] in
  let push n = nodes := n :: !nodes in
  List.iter
    (fun (kind, key, (u : Program.update)) ->
      let block = Printf.sprintf "on_%s %s" (Program.kind_string kind) key in
      (* expand temporary reads so every node's [reads] names pre-state
         relations only — a rule consuming [New] really reads whatever
         [New]'s definition read *)
      let env = Hashtbl.create 8 in
      let expand names =
        dedup
          (List.concat_map
             (fun r ->
               match Hashtbl.find_opt env r with
               | Some rs -> rs
               | None -> [ r ])
             names)
      in
      List.iter
        (fun (t : Program.rule) ->
          let reads = expand (reads_of t.body) in
          Hashtbl.replace env t.target reads;
          push
            {
              path = Printf.sprintf "%s / temp %s" block t.target;
              block;
              target = t.target;
              is_temp = true;
              reads;
            })
        u.temps;
      List.iter
        (fun (r : Program.rule) ->
          push
            {
              path = Printf.sprintf "%s / rule %s" block r.target;
              block;
              target = r.target;
              is_temp = false;
              reads = expand (reads_of r.body);
            })
        u.rules)
    (Program.updates p);
  let nodes = List.rev !nodes in
  let edges =
    dedup
      (List.concat_map
         (fun n ->
           if n.is_temp then []
           else List.map (fun r -> (n.target, r)) n.reads)
         nodes)
  in
  let query_reads =
    dedup
      (reads_of p.query
      @ List.concat_map (fun (_, _, body) -> reads_of body) p.queries)
  in
  (* live = relations whose contents can influence some query answer:
     backward closure of the query reads along defining-rule edges *)
  let live = Hashtbl.create 16 in
  let rec mark r =
    if not (Hashtbl.mem live r) then begin
      Hashtbl.add live r ();
      List.iter (fun (t, s) -> if t = r then mark s) edges
    end
  in
  List.iter mark query_reads;
  let inputs = rel_names p.input_vocab in
  let auxes = rel_names p.aux_vocab in
  let dead_rels = List.filter (fun r -> not (Hashtbl.mem live r)) auxes in
  let dead_rules =
    List.filter_map
      (fun n ->
        if (not n.is_temp) && not (Hashtbl.mem live n.target) then
          Some n.path
        else None)
      nodes
  in
  (* a relation both rewritten by a block and read inside the same block
     forces the two-phase commit the parallel engine performs; a block
     with no hazards could commit its writes eagerly in place *)
  let blocks = dedup (List.map (fun n -> n.block) nodes) in
  let hazards =
    List.concat_map
      (fun b ->
        let in_block = List.filter (fun n -> n.block = b) nodes in
        List.filter_map
          (fun w ->
            if w.is_temp then None
            else
              let readers =
                List.filter_map
                  (fun n ->
                    if List.mem w.target n.reads then Some n.path else None)
                  in_block
              in
              if readers = [] then None
              else
                Some
                  {
                    hz_block = b;
                    hz_rel = w.target;
                    hz_writer = w.path;
                    hz_readers = readers;
                  })
          in_block)
      blocks
  in
  {
    program = p.name;
    inputs;
    auxes;
    nodes;
    edges;
    query_reads;
    live = List.filter (Hashtbl.mem live) (inputs @ auxes);
    dead_rels;
    dead_rules;
    hazards;
  }

let pp_names ppf = function
  | [] -> Format.pp_print_string ppf "(none)"
  | xs ->
      Format.pp_print_list
        ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
        Format.pp_print_string ppf xs

let pp ppf d =
  Format.fprintf ppf
    "%s: %d rule node(s), %d dependency edge(s), %d hazard(s)@." d.program
    (List.length d.nodes) (List.length d.edges)
    (List.length d.hazards);
  List.iter
    (fun n ->
      Format.fprintf ppf "  %-28s reads %a@." n.path pp_names n.reads)
    d.nodes;
  Format.fprintf ppf "  query reads: %a@." pp_names d.query_reads;
  Format.fprintf ppf "  live: %a@." pp_names d.live;
  if d.dead_rels <> [] then
    Format.fprintf ppf "  dead relation(s): %a@." pp_names d.dead_rels;
  if d.dead_rules <> [] then
    Format.fprintf ppf "  dead rule(s): %a@." pp_names d.dead_rules;
  List.iter
    (fun h ->
      Format.fprintf ppf "  hazard [%s] %s: written by %s, read by %a@."
        h.hz_block h.hz_rel h.hz_writer pp_names h.hz_readers)
    d.hazards

let pp_dot ppf d =
  Format.fprintf ppf "digraph %S {@." d.program;
  Format.fprintf ppf "  rankdir=LR;@.";
  Format.fprintf ppf "  node [fontname=\"monospace\"];@.";
  List.iter
    (fun r -> Format.fprintf ppf "  %S [shape=box];@." r)
    d.inputs;
  List.iter
    (fun r ->
      if List.mem r d.dead_rels then
        Format.fprintf ppf
          "  %S [shape=ellipse, style=dashed, color=gray, label=\"%s (dead)\"];@."
          r r
      else Format.fprintf ppf "  %S [shape=ellipse];@." r)
    d.auxes;
  Format.fprintf ppf "  \"query\" [shape=diamond];@.";
  (* data flows from the relations a rule reads into its target *)
  List.iter
    (fun (target, read) -> Format.fprintf ppf "  %S -> %S;@." read target)
    d.edges;
  List.iter
    (fun r -> Format.fprintf ppf "  %S -> \"query\";@." r)
    d.query_reads;
  Format.fprintf ppf "}@."

let to_json d =
  let strs xs = Json.List (List.map (fun x -> Json.Str x) xs) in
  Json.(
    Obj
      [
        ("program", Str d.program);
        ( "rules",
          List
            (List.map
               (fun n ->
                 Obj
                   [
                     ("path", Str n.path);
                     ("target", Str n.target);
                     ("temp", Bool n.is_temp);
                     ("reads", strs n.reads);
                   ])
               d.nodes) );
        ("edges", List (List.map (fun (t, r) -> strs [ t; r ]) d.edges));
        ("query_reads", strs d.query_reads);
        ("live", strs d.live);
        ("dead_relations", strs d.dead_rels);
        ("dead_rules", strs d.dead_rules);
        ( "hazards",
          List
            (List.map
               (fun h ->
                 Obj
                   [
                     ("block", Str h.hz_block);
                     ("relation", Str h.hz_rel);
                     ("writer", Str h.hz_writer);
                     ("readers", strs h.hz_readers);
                   ])
               d.hazards) );
      ])
