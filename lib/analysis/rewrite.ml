open Dynfo_logic
open Dynfo

(* --- passes ---------------------------------------------------------- *)

type pass = { pass_name : string; transform : Formula.t -> Formula.t }

let default_passes =
  [
    { pass_name = "const-fold"; transform = Transform.const_fold };
    { pass_name = "simplify"; transform = Transform.simplify };
    { pass_name = "prune-quantifiers"; transform = Transform.prune_quantifiers };
    { pass_name = "one-point"; transform = Transform.one_point };
    { pass_name = "miniscope"; transform = Transform.miniscope };
  ]

(* --- results --------------------------------------------------------- *)

type counterexample = {
  cex_size : int;
  cex_env : (string * int) list;
  cex_structure : string;
  before_value : bool;
  after_value : bool;
}

let pp_counterexample ppf c =
  Format.fprintf ppf "n=%d%a, %s: before=%b after=%b" c.cex_size
    (fun ppf env ->
      List.iter (fun (x, v) -> Format.fprintf ppf " %s=%d" x v) env)
    c.cex_env c.cex_structure c.before_value c.after_value

type rejection = { rej_path : string; rej_pass : string; rej_reason : string }

type stats = { checks : int; exhaustive_upto : int }

let no_stats = { checks = 0; exhaustive_upto = 0 }

let merge_stats a b =
  {
    checks = a.checks + b.checks;
    exhaustive_upto =
      (if a.checks = 0 then b.exhaustive_upto
       else if b.checks = 0 then a.exhaustive_upto
       else min a.exhaustive_upto b.exhaustive_upto);
  }

(* --- semantic verification by model checking -------------------------

   Two formulas are compared by Mc on every structure over their support
   relations up to a size cutoff, under every assignment of their free
   variables and constants — exhaustively while the count of
   (structure, assignment) pairs fits the budget, by seeded random
   sampling beyond. Temporary relations are treated as relations with
   arbitrary content, which only strengthens the check. Both the
   tuple-at-a-time and the bulk evaluator are exercised. *)

(* the relations both formulas read, with arities resolved against the
   block's temporaries first, then the program vocabulary *)
let support ~vocab ~extra_rels fs =
  let resolve name =
    match List.assoc_opt name extra_rels with
    | Some a -> a
    | None -> Vocab.arity_of vocab name
  in
  List.fold_left
    (fun acc (name, _) ->
      if List.mem_assoc name acc then acc else (name, resolve name) :: acc)
    []
    (List.concat_map Formula.rel_atoms fs)
  |> List.rev

let dedup_strings xs =
  List.rev
    (List.fold_left (fun acc x -> if List.mem x acc then acc else x :: acc) [] xs)

let verify_equiv ~vocab ?(extra_rels = []) ?(max_size = 4) ?(budget = 60_000)
    ?(samples = 240) before after =
  let rels = support ~vocab ~extra_rels [ before; after ] in
  let idents =
    dedup_strings (Formula.free_vars before @ Formula.free_vars after)
  in
  let consts, fvars = List.partition (Vocab.mem_const vocab) idents in
  let checks = ref 0 in
  let found = ref None in
  let check st argss =
    incr checks;
    let env = List.combine fvars (List.hd argss) in
    let b = Eval.holds st ~env before in
    let a = Eval.holds st ~env after in
    (* cross-check the bulk evaluator on a cadence — same semantics,
       different code path *)
    let b, a =
      if b <> a || !checks land 7 <> 0 then (b, a)
      else (Bulk_eval.holds st ~env before, Bulk_eval.holds st ~env after)
    in
    if b <> a then
      found :=
        Some
          {
            cex_size = Structure.size st;
            cex_env = env;
            cex_structure = Format.asprintf "%a" Structure.pp st;
            before_value = b;
            after_value = a;
          };
    b = a
  in
  let r =
    Mc.synthetic ~seed:0xD1CE ~draws:1 ~max_size ~budget ~samples
      ~arities:[ List.length fvars ] ~check (Vocab.make ~rels ~consts)
  in
  match !found with
  | Some cex -> Error cex
  | None -> Ok { checks = r.mc_checks; exhaustive_upto = r.mc_exhaustive_upto }

(* --- structural verification ----------------------------------------- *)

let rec well_scoped = function
  | Formula.True | False | Rel _ | Eq _ | Le _ | Lt _ | Bit _ -> true
  | Not g -> well_scoped g
  | And (a, b) | Or (a, b) | Implies (a, b) | Iff (a, b) ->
      well_scoped a && well_scoped b
  | Exists (vs, g) | Forall (vs, g) -> vs <> [] && well_scoped g

let structural_check ~vocab ~extra_rels before after =
  let resolve name =
    match List.assoc_opt name extra_rels with
    | Some a -> Some a
    | None -> Vocab.arity_opt vocab name
  in
  let bad_atom =
    List.find_opt
      (fun (name, ts) ->
        match resolve name with
        | Some a -> a <> List.length ts
        | None -> true)
      (Formula.rel_atoms after)
  in
  match bad_atom with
  | Some (name, ts) ->
      Error
        (Printf.sprintf "atom %s/%d does not resolve in the vocabulary" name
           (List.length ts))
  | None ->
      let fv_before = Formula.free_vars before in
      let escaped =
        List.filter
          (fun x -> not (List.mem x fv_before))
          (Formula.free_vars after)
      in
      if escaped <> [] then
        Error
          (Printf.sprintf "rewrite introduces free variable %s"
             (String.concat ", " escaped))
      else if not (well_scoped after) then
        Error "rewrite produced an empty quantifier block"
      else Ok ()

(* --- verified formula optimization ----------------------------------- *)

type outcome = {
  result : Formula.t;
  applied : string list;
  rejected : rejection list;
  stats : stats;
}

let optimize_formula ?(passes = default_passes) ~vocab ?(extra_rels = [])
    ?max_size ?budget ?samples ~path f0 =
  let applied = ref [] in
  let rejected = ref [] in
  let stats = ref no_stats in
  let apply f (p : pass) =
    let f' = p.transform f in
    if Formula.equal f f' then f
    else
      let reject reason =
        rejected :=
          { rej_path = path; rej_pass = p.pass_name; rej_reason = reason }
          :: !rejected;
        f
      in
      match structural_check ~vocab ~extra_rels f f' with
      | Error reason -> reject reason
      | Ok () -> (
          match
            verify_equiv ~vocab ~extra_rels ?max_size ?budget ?samples f f'
          with
          | Error cex ->
              reject (Format.asprintf "counterexample: %a" pp_counterexample cex)
          | Ok s ->
              stats := merge_stats !stats s;
              applied := p.pass_name :: !applied;
              f')
  in
  let rec fix rounds f =
    if rounds = 0 then f
    else
      let f' = List.fold_left apply f passes in
      if Formula.equal f' f then f else fix (rounds - 1) f'
  in
  let result = fix 8 f0 in
  {
    result;
    applied = dedup_strings (List.rev !applied);
    rejected = List.rev !rejected;
    stats = !stats;
  }

(* --- common-subformula extraction into temporaries --------------------

   A composite subformula occurring in several rule bodies of one update
   block is evaluated once into a fresh temporary relation over its
   non-parameter free variables and replaced by an atom. Occurrences
   where a free identifier of the candidate is locally shadowed (a
   quantifier or the rule tuple re-binding a parameter/constant name)
   are unsafe and disqualify the candidate. The rewritten block is
   verified against the original by evaluating both on synthetic
   structures over the full program vocabulary — arbitrary auxiliary
   contents, a superset of the reachable states. *)

let block_path kind key = Printf.sprintf "on_%s %s" (Program.kind_string kind) key

let eval_block st ~env (u : Program.update) =
  let st' =
    List.fold_left
      (fun acc (t : Program.rule) ->
        Structure.declare_rel acc t.target
          (Eval.define acc ~vars:t.vars ~env t.body))
      st u.temps
  in
  List.map
    (fun (r : Program.rule) ->
      (r.target, Eval.define st' ~vars:r.vars ~env r.body))
    u.rules

let verify_block ~vocab ~params ?(max_size = 3) ?(budget = 2_000)
    ?(samples = 48) u_before u_after =
  let check st argss =
    let env = List.combine params (List.hd argss) in
    List.for_all2
      (fun (t1, r1) (t2, r2) -> t1 = t2 && Relation.equal r1 r2)
      (eval_block st ~env u_before)
      (eval_block st ~env u_after)
  in
  let r =
    Mc.synthetic ~seed:0xCE5 ~draws:1 ~max_size ~budget ~samples
      ~arities:[ List.length params ] ~check vocab
  in
  ( r.mc_cex = None,
    { checks = r.mc_checks; exhaustive_upto = r.mc_exhaustive_upto } )

(* candidate occurrences: composite subformulas of rule bodies with the
   quantifier-bound variables enclosing each occurrence *)
let collect_candidates (rules : Program.rule list) =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun (r : Program.rule) ->
      let rec go bound f =
        (match f with
        | Formula.True | False | Rel _ | Eq _ | Le _ | Lt _ | Bit _ -> ()
        | _ ->
            let prev = Option.value ~default:[] (Hashtbl.find_opt tbl f) in
            Hashtbl.replace tbl f ((r, bound) :: prev));
        match f with
        | Formula.True | False | Rel _ | Eq _ | Le _ | Lt _ | Bit _ -> ()
        | Not g -> go bound g
        | And (a, b) | Or (a, b) | Implies (a, b) | Iff (a, b) ->
            go bound a;
            go bound b
        | Exists (vs, g) | Forall (vs, g) -> go (vs @ bound) g
      in
      go [] r.body)
    rules;
  tbl

let rec replace_formula cand atom f =
  if Formula.equal f cand then atom
  else
    match f with
    | Formula.True | False | Rel _ | Eq _ | Le _ | Lt _ | Bit _ -> f
    | Not g -> Not (replace_formula cand atom g)
    | And (a, b) -> And (replace_formula cand atom a, replace_formula cand atom b)
    | Or (a, b) -> Or (replace_formula cand atom a, replace_formula cand atom b)
    | Implies (a, b) ->
        Implies (replace_formula cand atom a, replace_formula cand atom b)
    | Iff (a, b) -> Iff (replace_formula cand atom a, replace_formula cand atom b)
    | Exists (vs, g) -> Exists (vs, replace_formula cand atom g)
    | Forall (vs, g) -> Forall (vs, replace_formula cand atom g)

let cse_block ~vocab ~fresh_names (u : Program.update) =
  let tbl = collect_candidates u.rules in
  let taken name =
    Vocab.mem_rel vocab name || Vocab.mem_const vocab name
    || List.exists (fun (t : Program.rule) -> t.target = name) u.temps
  in
  let candidates =
    Hashtbl.fold
      (fun f occs acc ->
        if List.length occs < 2 then acc
        else if Formula.size f < 5 then acc
        else if Formula.rel_atoms f = [] then acc
        else
          let fv = Formula.free_vars f in
          let tvars =
            List.filter
              (fun x -> not (List.mem x u.params || Vocab.mem_const vocab x))
              fv
          in
          let shadowed =
            (* a param/constant of the candidate re-bound at an occurrence
               would resolve differently inside the temporary *)
            List.exists
              (fun ((r : Program.rule), bound) ->
                List.exists
                  (fun x ->
                    (not (List.mem x tvars))
                    && (List.mem x bound || List.mem x r.vars))
                  fv)
              occs
          in
          if shadowed || List.length tvars > 3 then acc
          else (f, tvars, List.length occs) :: acc)
      tbl []
  in
  (* prefer heavy, frequent candidates; drop ones overlapping a pick *)
  let candidates =
    List.sort
      (fun (f1, _, c1) (f2, _, c2) ->
        compare (Formula.size f2 * c2, f2) (Formula.size f1 * c1, f1))
      candidates
  in
  let picked =
    List.fold_left
      (fun picked (f, tvars, _) ->
        if List.length picked >= 2 then picked
        else
          let overlaps (g, _) =
            List.exists (Formula.equal f) (Formula.subformulas g)
            || List.exists (Formula.equal g) (Formula.subformulas f)
          in
          if List.exists overlaps picked then picked
          else (f, tvars) :: picked)
      [] candidates
  in
  if picked = [] then (u, [])
  else
    let picked = List.rev picked in
    let named =
      List.mapi
        (fun i (f, tvars) ->
          let rec name k =
            let n = Printf.sprintf "%s%d" fresh_names (i + k) in
            if taken n then name (k + 1) else n
          in
          (name 0, f, tvars))
        picked
    in
    let new_temps =
      List.map
        (fun (name, f, tvars) -> Program.rule name tvars f)
        named
    in
    let rules =
      List.map
        (fun (r : Program.rule) ->
          let body =
            List.fold_left
              (fun body (name, f, tvars) ->
                replace_formula f (Formula.rel_v name tvars) body)
              r.body named
          in
          { r with body })
        u.rules
    in
    ( { u with temps = u.temps @ new_temps; rules },
      List.map (fun (name, _, _) -> name) named )

(* --- whole-program optimization --------------------------------------- *)

type change = {
  chg_path : string;
  chg_before : Formula.t;
  chg_after : Formula.t;
  chg_passes : string list;
}

type program_report = {
  original : Program.t;
  optimized : Program.t;
  changes : change list;
  rejections : rejection list;
  cse_temps : (string * string list) list;  (** block path, new temps *)
  stats : stats;
  work_before : int;
  work_after : int;
  size_before : int;
  size_after : int;
}

let temp_scopes (p : Program.t) =
  let extra = Hashtbl.create 16 in
  List.iter
    (fun (kind, key, (u : Program.update)) ->
      let block = block_path kind key in
      let rec temps earlier = function
        | [] -> ()
        | (t : Program.rule) :: rest ->
            Hashtbl.replace extra
              (Printf.sprintf "%s / temp %s" block t.target)
              earlier;
            temps (earlier @ [ (t.target, List.length t.vars) ]) rest
      in
      temps [] u.temps;
      let all =
        List.map (fun (t : Program.rule) -> (t.target, List.length t.vars)) u.temps
      in
      List.iter
        (fun (r : Program.rule) ->
          Hashtbl.replace extra (Printf.sprintf "%s / rule %s" block r.target) all)
        u.rules)
    (Program.updates p);
  extra

let total_size (p : Program.t) =
  List.fold_left
    (fun acc (_, _, (u : Program.update)) ->
      List.fold_left
        (fun acc (r : Program.rule) -> acc + Formula.size r.body)
        acc (u.temps @ u.rules))
    (Formula.size p.query)
    (Program.updates p)

let optimize_program ?(passes = default_passes) ?max_size ?budget ?samples
    ?(cse = true) (p : Program.t) =
  let vocab = Program.vocab p in
  let extra = temp_scopes p in
  let changes = ref [] in
  let rejections = ref [] in
  let stats = ref no_stats in
  let optimized =
    Program.optimize
      (fun ~path body ->
        let extra_rels = Option.value ~default:[] (Hashtbl.find_opt extra path) in
        let o =
          optimize_formula ~passes ~vocab ~extra_rels ?max_size ?budget
            ?samples ~path body
        in
        stats := merge_stats !stats o.stats;
        rejections := !rejections @ o.rejected;
        if not (Formula.equal o.result body) then
          changes :=
            {
              chg_path = path;
              chg_before = body;
              chg_after = o.result;
              chg_passes = o.applied;
            }
            :: !changes;
        o.result)
      p
  in
  let optimized, cse_temps =
    if not cse then (optimized, [])
    else
      let map_blocks kind blocks =
        List.map
          (fun (key, (u : Program.update)) ->
            let u', names = cse_block ~vocab ~fresh_names:"cse" u in
            if names = [] then ((key, u), [])
            else
              let ok, block_stats = verify_block ~vocab ~params:u.params u u' in
              let path = block_path kind key in
              stats := merge_stats !stats block_stats;
              if ok then ((key, u'), [ (path, names) ])
              else begin
                rejections :=
                  !rejections
                  @ [
                      {
                        rej_path = path;
                        rej_pass = "cse";
                        rej_reason = "block equivalence check failed";
                      };
                    ];
                ((key, u), [])
              end)
          blocks
      in
      let ins = map_blocks `Ins optimized.on_ins in
      let del = map_blocks `Del optimized.on_del in
      let set = map_blocks `Set optimized.on_set in
      let q =
        {
          optimized with
          on_ins = List.map fst ins;
          on_del = List.map fst del;
          on_set = List.map fst set;
        }
      in
      Program.validate q;
      (q, List.concat_map snd (ins @ del @ set))
  in
  let mb = Metrics.of_program p and ma = Metrics.of_program optimized in
  {
    original = p;
    optimized;
    changes = List.rev !changes;
    rejections = !rejections;
    cse_temps;
    stats = !stats;
    work_before = mb.Metrics.max_work_exponent;
    work_after = ma.Metrics.max_work_exponent;
    size_before = total_size p;
    size_after = total_size optimized;
  }

(* --- end-to-end differential check ------------------------------------ *)

let check_equivalence ?(size = 5) ?(length = 120) ?(seeds = [ 1; 2 ]) p q =
  let impls =
    [ Dyn.of_program p; Dyn.of_program { q with Program.name = q.Program.name ^ "+opt" } ]
  in
  let spec = Mc.workload_spec p in
  List.fold_left
    (fun acc seed ->
      match acc with
      | Error _ -> acc
      | Ok n -> (
          let reqs =
            Workload.generate (Random.State.make [| seed |]) ~size ~length spec
          in
          match Harness.compare_all ~size impls reqs with
          | Harness.Ok k -> Ok (n + k)
          | Harness.Mismatch m ->
              Error
                (Format.asprintf "seed %d: %a" seed Harness.pp_outcome
                   (Harness.Mismatch m))))
    (Ok 0) seeds
