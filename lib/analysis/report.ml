type t = {
  program : string;
  diagnostics : Diagnostic.t list;
  metrics : Metrics.t;
  dataflow : Dataflow.t;
  advice : Advisor.advice;
}

let version = 5

let of_program p =
  {
    program = (p : Dynfo.Program.t).name;
    diagnostics = Check.program p;
    metrics = Metrics.of_program p;
    dataflow = Dataflow.of_program p;
    advice = Advisor.of_program p;
  }

let count sev r =
  List.length (List.filter (fun (d : Diagnostic.t) -> d.severity = sev) r.diagnostics)

let errors r = count Diagnostic.Error r
let warnings r = count Diagnostic.Warning r
let is_clean r = r.diagnostics = []

let ok r ~strict =
  errors r = 0 && ((not strict) || warnings r = 0)

let pp_summary ppf r =
  if is_clean r then
    Format.fprintf ppf "%-16s ok — %d rules, work n^%d" r.program
      r.metrics.Metrics.rule_count r.metrics.Metrics.max_work_exponent
  else
    Format.fprintf ppf "%-16s %d error(s), %d warning(s)" r.program
      (errors r) (warnings r)

let pp ppf r =
  List.iter (fun d -> Format.fprintf ppf "%a@." Diagnostic.pp d) r.diagnostics;
  Metrics.pp ppf r.metrics;
  Format.fprintf ppf
    "  dataflow: %d dependency edge(s), %d hazard(s), %d dead \
     relation(s)@."
    (List.length r.dataflow.Dataflow.edges)
    (List.length r.dataflow.Dataflow.hazards)
    (List.length r.dataflow.Dataflow.dead_rels);
  if r.dataflow.Dataflow.dead_rels <> [] then
    Format.fprintf ppf "  dead: %a@." Dataflow.pp_names
      r.dataflow.Dataflow.dead_rels;
  Format.fprintf ppf "  advice: --backend %s (cutoff %d) — %s@."
    (Advisor.backend_string r.advice.Advisor.backend)
    r.advice.Advisor.par_cutoff r.advice.Advisor.reason

let to_json r =
  Dynfo.Json.(
    Obj
      [
        ("version", Int version);
        ("program", Str r.program);
        ("diagnostics", List (List.map Diagnostic.to_json r.diagnostics));
        ("metrics", Metrics.to_json r.metrics);
        ("dataflow", Dataflow.to_json r.dataflow);
        ("advice", Advisor.to_json r.advice);
      ])
