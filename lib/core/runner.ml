open Dynfo_logic
open Dynfo_engine

type state = {
  program : Program.t;
  structure : Structure.t;
  pool : Pool.t;  (* borrowed: never shut down here *)
  cutoff : int;  (* the smallest tuple space worth fanning out *)
  cache : Delta_eval.cache;  (* shared by every state stepped from one init *)
}

(* Without [?pool] a state evaluates on [Pool.inline]: one lane spawns
   no domain and runs every evaluator's kernel inline, which is why every
   thread may share it. *)
let make ?(pool = Pool.inline) ?(cutoff = Pool.default_cutoff) p structure =
  { program = p; structure; pool; cutoff; cache = Delta_eval.new_cache () }

let init ?pool ?cutoff (p : Program.t) ~size =
  let st = p.init size in
  (* sanity: the initial structure must expose the whole vocabulary *)
  ignore (Structure.restrict st (Program.vocab p));
  make ?pool ?cutoff p st

let structure s = s.structure
let input s = Structure.restrict s.structure s.program.input_vocab
let program s = s.program

type backend = [ `Tuple | `Bulk | `Delta | `Auto ]

(* [`Auto] resolution is delegated so the core library does not depend on
   the analysis layer: [Dynfo_analysis.Advisor.install] replaces the
   chooser with the metrics-driven one. Until then [`Auto] means
   [`Tuple], the conservative default. *)
let auto_chooser : (Program.t -> [ `Tuple | `Bulk | `Delta ]) ref =
  ref (fun _ -> `Tuple)

let set_auto_chooser f = auto_chooser := f

(* Same injection pattern for the delta backend's static support plans:
   [Dynfo_analysis.Advisor.install] (via Support) replaces the planner.
   The conservative default plan has no frames, so [`Delta] degenerates
   to per-rule full recomputes on the tuple backend until then. *)
let delta_planner : (Program.t -> Delta_eval.program_plan) ref =
  ref (fun _ -> Delta_eval.conservative_plan)

let set_delta_planner f = delta_planner := f

let resolve_backend (p : Program.t) (b : backend) =
  match b with
  | `Auto -> !auto_chooser p
  | (`Tuple | `Bulk | `Delta) as b -> b

(* Third instance of the injection pattern: the per-program commutation
   oracle behind the batch planner and the serving layer's coalescing.
   Every field must answer [false] unless the corresponding law was
   verified for the program — the default oracle trusts nothing, so
   [step_batch] degenerates to in-order evaluation until
   [Dynfo_analysis.Commute.install] swaps in the verified matrix. *)
type commute_oracle = {
  co_swap : Request.t -> Request.t -> bool;
  co_elidable : Request.t -> bool;
  co_dedupe : Request.t -> bool;
  co_invisible : Request.t -> string option -> bool;
}

let null_oracle =
  {
    co_swap = (fun _ _ -> false);
    co_elidable = (fun _ -> false);
    co_dedupe = (fun _ -> false);
    co_invisible = (fun _ _ -> false);
  }

let commute_oracle_ref : (Program.t -> commute_oracle) ref =
  ref (fun _ -> null_oracle)

let set_commute_oracle f = commute_oracle_ref := f
let commute_oracle p = !commute_oracle_ref p

(* Fourth instance of the injection pattern: the per-program definable-
   change oracle behind [step_batch]'s set-at-a-time paths. Per (update
   kind, input relation) it answers how a whole same-op group may be
   evaluated in one tick:
   - [`Absorb]: apply the input changes only, skip the update block —
     licensed by a model-checked law that the block leaves nothing else
     to maintain for this op (e.g. ops with no update block at all);
   - [`Fold]: no verified law — the existing singleton fold, bit for
     bit, each member evaluating its own frontier. The default oracle
     answers [`Fold] for everything;
     [Dynfo_analysis.Defchange.install] swaps in the verified matrix. *)
type defchange_verdict = [ `Absorb | `Fold ]

let defchange_oracle_ref :
    (Program.t -> [ `Ins | `Del | `Set ] -> string -> defchange_verdict) ref =
  ref (fun _ _ _ -> `Fold)

let set_defchange_oracle f = defchange_oracle_ref := f
let defchange_verdict p kind rel = !defchange_oracle_ref p kind rel

let op_key = function
  | Request.Ins (n, _) | Request.Ins_set (n, _) | Request.Ins_def (n, _, _) ->
      (`Ins, n)
  | Request.Del (n, _) | Request.Del_set (n, _) | Request.Del_def (n, _, _) ->
      (`Del, n)
  | Request.Set (n, _) -> (`Set, n)

(* One rule evaluated in full on a concrete backend, on the state's pool,
   its work charged to [work]. *)
let full_define s ~work backend st ~vars ~env f =
  match backend with
  | `Tuple -> Eval.define ~work ~pool:s.pool ~cutoff:s.cutoff st ~vars ~env f
  | `Bulk ->
      Bulk_eval.define ~work ~pool:s.pool ~cutoff:s.cutoff st ~vars ~env f

(* The simultaneous rule block on [`Tuple] or [`Bulk]: every body reads
   only the pre-state (plus earlier temporaries), so the rules go in
   order, each parallel inside on the pool. *)
let full_rules_define s ~work backend st ~env rules =
  List.map
    (fun (r : Program.rule) ->
      (r.target, full_define s ~work backend st ~vars:r.vars ~env r.body))
    rules

(* The delta backend: look each rule up in the block's plan and evaluate
   its dirty frontier only ([Delta_eval.define] chunks it over the
   pool's lanes); anything without a matching framed plan — temporaries
   (fresh every step, nothing to be incremental against) and unframed
   rules — is recomputed in full on the plan's fallback backend. The plan is
   validated against the actual rule (vars + body) so a stale plan for a
   same-named variant of the program degrades to a full recompute
   instead of misevaluating. *)
let delta_rules_define s ~work (plan : Delta_eval.program_plan)
    block st ~env rules =
  let fallback = plan.Delta_eval.pp_fallback in
  List.map
    (fun (r : Program.rule) ->
      let rel =
        match Option.bind block (fun bp -> Delta_eval.rule_plan_for bp r.target)
        with
        | Some rp
          when rp.Delta_eval.rp_vars = r.vars
               && Formula.equal rp.Delta_eval.rp_body r.body ->
            Delta_eval.define ~work ~cache:s.cache ~fallback ~pool:s.pool
              ~cutoff:s.cutoff st ~env rp
        | _ -> full_define s ~work fallback st ~vars:r.vars ~env r.body
      in
      (r.target, rel))
    rules

(* The [rules_define] of one request on a concrete backend, charging
   [work]. Under [`Delta] the request's kind and input relation pick the
   block plan, looked up once here rather than per temporary. *)
let rules_define s ~work backend req =
  match backend with
  | (`Tuple | `Bulk) as b -> full_rules_define s ~work b
  | `Delta ->
      let plan = !delta_planner s.program in
      let kind, name = op_key req in
      delta_rules_define s ~work plan
        (Delta_eval.block_for plan kind name)

let apply_update_with ~rules_define st (u : Program.update) (args : int list)
    =
  (* reject last-wins races: one simultaneous block, one writer per target
     (programs built by [Program.make] are already validated; this guards
     hand-assembled ones and keeps the parallel engine's install phase
     order-independent) *)
  ignore
    (List.fold_left
       (fun seen (r : Program.rule) ->
         if List.mem r.target seen then
           invalid_arg
             (Printf.sprintf
                "Runner.step: update block redefines target %s twice"
                r.target);
         r.target :: seen)
       [] u.rules);
  let env = List.combine u.params args in
  (* temporaries: sequential, visible to later temps and to rules; each
     goes through [rules_define] too (as a one-rule block) so backends
     and the parallel engine cover the temp evaluations as well *)
  let with_temps =
    List.fold_left
      (fun acc (r : Program.rule) ->
        match rules_define acc ~env [ r ] with
        | [ (_, rel) ] -> Structure.declare_rel acc r.target rel
        | _ -> assert false)
      st u.temps
  in
  (* rules: all evaluated against the pre-state (+temps), then installed *)
  let new_rels = rules_define with_temps ~env u.rules in
  List.fold_left (fun acc (name, rel) -> Structure.with_rel acc name rel) st
    new_rels

let rec step_with_unchecked ~work ~rules_define s req =
  let apply_update = apply_update_with ~rules_define in
  let p = s.program in
  let structure =
    match req with
    | Request.Ins_set _ | Request.Del_set _ | Request.Ins_def _
    | Request.Del_def _ ->
        (* a set request outside a batch tick: expand against the current
           structure and fold the singleton sequence it denotes *)
        (List.fold_left
           (step_with_unchecked ~work ~rules_define)
           s
           (Request.expand ~work s.structure req))
          .structure
    | Request.Ins (name, tup) ->
        let st =
          match List.assoc_opt name p.on_ins with
          | Some u -> apply_update s.structure u (Array.to_list tup)
          | None -> s.structure
        in
        (* default maintenance of the input relation itself *)
        let handled =
          match List.assoc_opt name p.on_ins with
          | Some u -> List.exists (fun (r : Program.rule) -> r.target = name) u.rules
          | None -> false
        in
        if handled then st else Structure.add_tuple st name tup
    | Request.Del (name, tup) ->
        let st =
          match List.assoc_opt name p.on_del with
          | Some u -> apply_update s.structure u (Array.to_list tup)
          | None -> s.structure
        in
        let handled =
          match List.assoc_opt name p.on_del with
          | Some u -> List.exists (fun (r : Program.rule) -> r.target = name) u.rules
          | None -> false
        in
        if handled then st else Structure.del_tuple st name tup
    | Request.Set (name, a) ->
        let st = Structure.with_const s.structure name a in
        (match List.assoc_opt name p.on_set with
        | Some u -> apply_update st u []
        | None -> st)
  in
  { s with structure }

let validate_request ~who s req =
  let p = s.program in
  let size = Structure.size s.structure in
  if not (Request.valid p.input_vocab ~size req) then
    invalid_arg
      (Printf.sprintf "%s: invalid request %s for program %s" who
         (Request.to_string req) p.name)

let step ?(work = ref 0) ?(backend = `Tuple) s req =
  validate_request ~who:"Runner.step" s req;
  let resolved = resolve_backend s.program backend in
  step_with_unchecked ~work
    ~rules_define:(rules_define s ~work resolved req)
    s req

let run ?work ?backend s reqs = List.fold_left (step ?work ?backend) s reqs

(* --- commute-aware batch planning ------------------------------------------ *)

(* Does [req] change nothing about the input part of the state? Only
   consulted for ops whose redundant-request no-op law the oracle
   verified, so skipping the update block entirely is state-preserving. *)
let redundant st = function
  | Request.Ins (name, tup) -> Structure.mem st name tup
  | Request.Del (name, tup) -> not (Structure.mem st name tup)
  | Request.Set (name, v) -> Structure.const st name = v
  | Request.Ins_set _ | Request.Del_set _ | Request.Ins_def _
  | Request.Del_def _ ->
      (* set requests are expanded before elision is consulted; an
         unexpanded one is never known-redundant *)
      false

(* Greedy stable grouping: each request joins the most recent group of
   its own operation it can reach by commuting (pairwise, as judged by
   [swap]) past every request of the newer groups in between; otherwise
   it opens a new group at the tail. Requests only ever move earlier,
   the displaced ones keep their relative order, and every adjacent
   transposition is oracle-approved — so the concatenation of the groups
   is equivalent to the original sequence. With the null oracle only the
   newest group is ever joined, i.e. the plan degenerates to the maximal
   same-operation runs of the request list, in order. *)
let plan_groups_with swap reqs =
  let place groups r =
    let key = op_key r in
    let rec go newer = function
      | (k, members) :: older when k = key ->
          Some (List.rev_append newer ((k, r :: members) :: older))
      | (k, members) :: older when List.for_all (fun r' -> swap r' r) members
        ->
          go ((k, members) :: newer) older
      | _ -> None
    in
    match go [] groups with
    | Some groups -> groups
    | None -> (key, [ r ]) :: groups
  in
  List.fold_left place [] reqs
  |> List.rev_map (fun (_, members) -> List.rev members)

let plan_groups p reqs =
  plan_groups_with (!commute_oracle_ref p).co_swap reqs

type batch_info = {
  bi_groups : int;
  bi_elided : int;
  bi_absorbed : int;
  bi_streamed : int;
}

(* The [`Absorb] path: apply the input change only, skipping the update
   block — exactly the runner's default maintenance, for every member of
   a certified group at once. The Defchange analyzer model-checks THIS
   function against the singleton fold per (program, op); keeping it a
   first-class export means the verified law and the exploited code path
   cannot drift apart. *)
let absorb_apply st = function
  | Request.Ins (name, tup) -> Structure.add_tuple st name tup
  | Request.Del (name, tup) -> Structure.del_tuple st name tup
  | Request.Set (name, v) -> Structure.with_const st name v
  | (Request.Ins_set _ | Request.Del_set _ | Request.Ins_def _
    | Request.Del_def _) as r ->
      invalid_arg
        (Printf.sprintf "Runner.absorb_group: unexpanded set request %s"
           (Request.to_string r))

let absorb_group s group =
  { s with structure = List.fold_left absorb_apply s.structure group }

(* One evaluation tick over an explicit request list: the serving
   layer's coalescing unit. Semantically the sequential composition of
   the singleton steps — the qcheck oracle asserts state equality
   against {!run} on every registry program and backend — with the
   per-request overheads amortised batch-wide: validation happens once
   up front (which also makes the batch atomic: an invalid member
   rejects it before anything runs), [`Auto] resolves once, and the
   delta backend's memoized rule testers ([Delta_eval]) are compiled at
   most once under the batch's first step.

   With a commute oracle installed the batch is first reordered into
   same-operation groups (sound by the oracle's pairwise swap verdicts),
   so the delta backend performs one block-plan lookup per group instead
   of per request; and requests that do not change the input (insert of
   a present tuple, delete of an absent one, set to the current value)
   are skipped entirely for ops whose no-op law the oracle verified.

   With a defchange oracle installed each group is additionally
   evaluated per its verified (kind, relation) verdict: [`Absorb]
   applies the input changes only ([absorb_group]); [`Fold] (and any op
   the analyzer could not certify) takes the unchanged singleton fold,
   so a tick's work is the work of its requests stepped one by one.
   Set requests ([Request.Ins_set] etc.) are expanded against the
   tick's pre-state first — the "definable changes" simultaneous
   reading — and their singletons planned like any others. *)
let step_batch_info ?(work = ref 0) ?(backend = `Tuple) ?oracle ?defchange s
    reqs =
  List.iter (validate_request ~who:"Runner.step_batch" s) reqs;
  let backend = resolve_backend s.program backend in
  let oracle =
    match oracle with Some o -> o | None -> !commute_oracle_ref s.program
  in
  let verdict =
    match defchange with
    | Some f -> f
    | None -> !defchange_oracle_ref s.program
  in
  let reqs = Request.expand_batch ~work s.structure reqs in
  let groups = plan_groups_with oracle.co_swap reqs in
  let step_group (s, info) group =
    let kind, rel = op_key (List.hd group) in
    match verdict kind rel with
    | `Absorb ->
        ( absorb_group s group,
          { info with bi_absorbed = info.bi_absorbed + List.length group } )
    | `Fold ->
        let rules_define = rules_define s ~work backend (List.hd group) in
        List.fold_left
          (fun (s, info) req ->
            if oracle.co_elidable req && redundant s.structure req then
              (s, { info with bi_elided = info.bi_elided + 1 })
            else (step_with_unchecked ~work ~rules_define s req, info))
          (s, info) group
  in
  let s, info =
    List.fold_left step_group
      (s, { bi_groups = 0; bi_elided = 0; bi_absorbed = 0; bi_streamed = 0 })
      groups
  in
  (s, { info with bi_groups = List.length groups })

let step_batch ?work ?backend ?oracle ?defchange s reqs =
  fst (step_batch_info ?work ?backend ?oracle ?defchange s reqs)

let restore ?pool ?cutoff (p : Program.t) st =
  (* the snapshot must expose the whole combined vocabulary, exactly as
     [init]'s output does *)
  ignore (Structure.restrict st (Program.vocab p));
  make ?pool ?cutoff p st

(* Queries have no frame (there is no previous value of a sentence to be
   incremental against), so [`Delta] queries on the plan's fallback. *)
let concrete_query_backend p = function
  | (`Tuple | `Bulk) as b -> b
  | `Delta -> (!delta_planner p).Delta_eval.pp_fallback

let holds ?work ?(backend = `Tuple) s ?env f =
  match concrete_query_backend s.program (resolve_backend s.program backend) with
  | `Tuple -> Eval.holds ?work s.structure ?env f
  | `Bulk -> Bulk_eval.holds ?work ~pool:s.pool s.structure ?env f

let query ?work ?backend s = holds ?work ?backend s s.program.query

let query_named ?work ?backend s name args =
  match List.find_opt (fun (n, _, _) -> n = name) s.program.queries with
  | None -> raise Not_found
  | Some (_, vars, body) ->
      if List.length vars <> List.length args then
        invalid_arg "Runner.query_named: arity mismatch";
      holds ?work ?backend s ~env:(List.combine vars args) body

(* One fresh counter per call: a step's work is a function of its
   pre-state and requests only, whatever else the process evaluates. *)
let step_work ?backend s req =
  let work = ref 0 in
  let s = step ~work ?backend s req in
  (s, !work)

let step_batch_full ?backend ?oracle ?defchange s reqs =
  let work = ref 0 in
  let s, info = step_batch_info ~work ?backend ?oracle ?defchange s reqs in
  (s, !work, info)

let run_work ?backend s reqs =
  List.fold_left_map (fun s req -> step_work ?backend s req) s reqs
