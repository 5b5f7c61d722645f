open Dynfo_logic
open Dynfo

type formula_metrics = {
  path : string;
  target : string;
  tuple_exponent : int;
  quantifier_rank : int;
  alternation_depth : int;
  formula_size : int;
  width : int;
  work_exponent : int;
  opt_quantifier_rank : int;
  opt_work_exponent : int;
}

type t = {
  program : string;
  rules : formula_metrics list;
  queries : formula_metrics list;
  rule_count : int;
  max_tuple_exponent : int;
  max_quantifier_rank : int;
  max_alternation_depth : int;
  max_work_exponent : int;
  max_opt_work_exponent : int;
  total_formula_size : int;
}

let of_formula ~path ~target ~vars body =
  let k = List.length vars in
  let rank = Formula.quantifier_rank body in
  (* count the tuple variables into the width even when the body ignores
     some of them: the evaluator still allocates their registers *)
  let width = Formula.width (Formula.exists vars body) in
  (* static estimate only — the verified rewrite lives in [Rewrite] *)
  let opt_rank = Formula.quantifier_rank (Transform.optimize body) in
  {
    path;
    target;
    tuple_exponent = k;
    quantifier_rank = rank;
    alternation_depth = Formula.alternation_depth body;
    formula_size = Formula.size body;
    width;
    work_exponent = k + rank;
    opt_quantifier_rank = opt_rank;
    opt_work_exponent = k + opt_rank;
  }

let of_program (p : Program.t) =
  let rules =
    List.concat_map
      (fun (kind, key, (u : Program.update)) ->
        let block =
          Printf.sprintf "on_%s %s" (Program.kind_string kind) key
        in
        List.map
          (fun (t : Program.rule) ->
            of_formula
              ~path:(Printf.sprintf "%s / temp %s" block t.target)
              ~target:t.target ~vars:t.vars t.body)
          u.temps
        @ List.map
            (fun (r : Program.rule) ->
              of_formula
                ~path:(Printf.sprintf "%s / rule %s" block r.target)
                ~target:r.target ~vars:r.vars r.body)
            u.rules)
      (Program.updates p)
  in
  let queries =
    of_formula ~path:"query" ~target:"query" ~vars:[] p.query
    :: List.map
         (fun (qname, qvars, body) ->
           of_formula
             ~path:(Printf.sprintf "query %s" qname)
             ~target:qname ~vars:qvars body)
         p.queries
  in
  let all = rules @ queries in
  let fold f = List.fold_left (fun m r -> max m (f r)) 0 all in
  {
    program = p.name;
    rules;
    queries;
    rule_count = List.length rules;
    max_tuple_exponent = fold (fun r -> r.tuple_exponent);
    max_quantifier_rank = fold (fun r -> r.quantifier_rank);
    max_alternation_depth = fold (fun r -> r.alternation_depth);
    max_work_exponent = fold (fun r -> r.work_exponent);
    max_opt_work_exponent = fold (fun r -> r.opt_work_exponent);
    total_formula_size =
      List.fold_left (fun acc r -> acc + r.formula_size) 0 all;
  }

let pp_row ppf r =
  Format.fprintf ppf "  %-28s %5d %5d %5d %6d %6d %8s %6s" r.path
    r.tuple_exponent r.quantifier_rank r.alternation_depth r.formula_size
    r.width
    (Printf.sprintf "n^%d" r.work_exponent)
    (Printf.sprintf "n^%d" r.opt_work_exponent)

let pp ppf m =
  Format.fprintf ppf "%s: %d update rules, CRAM[1] work n^%d@." m.program
    m.rule_count m.max_work_exponent;
  Format.fprintf ppf "  %-28s %5s %5s %5s %6s %6s %8s %6s@." "PATH" "k"
    "rank" "alt" "size" "width" "work" "opt";
  List.iter (fun r -> Format.fprintf ppf "%a@." pp_row r) m.rules;
  List.iter (fun r -> Format.fprintf ppf "%a@." pp_row r) m.queries;
  Format.fprintf ppf
    "  max: tuple space n^%d, quantifier rank %d, alternation depth %d, \
     work n^%d (n^%d optimized); total formula size %d@."
    m.max_tuple_exponent m.max_quantifier_rank m.max_alternation_depth
    m.max_work_exponent m.max_opt_work_exponent m.total_formula_size

let row_to_json r =
  Json.(
    Obj
      [
        ("path", Str r.path);
        ("target", Str r.target);
        ("tuple_exponent", Int r.tuple_exponent);
        ("quantifier_rank", Int r.quantifier_rank);
        ("alternation_depth", Int r.alternation_depth);
        ("formula_size", Int r.formula_size);
        ("width", Int r.width);
        ("work_exponent", Int r.work_exponent);
        ("opt_quantifier_rank", Int r.opt_quantifier_rank);
        ("opt_work_exponent", Int r.opt_work_exponent);
      ])

let to_json m =
  Json.(
    Obj
      [
        ("program", Str m.program);
        ("rule_count", Int m.rule_count);
        ("max_tuple_exponent", Int m.max_tuple_exponent);
        ("max_quantifier_rank", Int m.max_quantifier_rank);
        ("max_alternation_depth", Int m.max_alternation_depth);
        ("max_work_exponent", Int m.max_work_exponent);
        ("max_opt_work_exponent", Int m.max_opt_work_exponent);
        ("total_formula_size", Int m.total_formula_size);
        ("rules", List (List.map row_to_json m.rules));
        ("queries", List (List.map row_to_json m.queries));
      ])
