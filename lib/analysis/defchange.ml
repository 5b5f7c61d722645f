open Dynfo_logic
open Dynfo

(* Definable-change analysis: which whole-batch evaluation strategies
   are safe per (program, update op)? The serving layer coalesces
   batches into one evaluation tick; this module licenses the two
   exploitations [Runner.step_batch] knows:

   - [Absorb]: apply the input changes and skip the update block —
     default maintenance for the whole group;
   - [Stream]: fold the members under one [Delta_eval] batch scope so
     the group accumulates a single dirty mask (one clear, one unioned
     frontier) instead of one per member.

   Following the PR-4/PR-8 discipline, static evidence only nominates:
   (1) syntactic — no update block, or no rule reads the relation the
   batch writes, so members cannot observe each other's effects;
   (2) frame-based — every rule carries a slab frame from its Support
   plan, so the group's frontiers union into one mask.
   Layer (3), the bounded model checker [Mc], is the only thing that
   grants a verdict: it runs the {e actual exploited code paths}
   ([Runner.absorb_group], [Runner.step_batch ~defchange]) against the
   singleton-sequence fold over batches of size 1..3, exhaustively
   while the budget lasts and with seeded sampling beyond, plus the
   FO-definable set-change forms ([ins*]/[insdef]) against their
   explicit expansion. Anything unverified is [Unknown], which every
   consumer treats as [Fold] — the unchanged singleton fold. *)

(* --- operations (shared with Commute) -------------------------------------- *)

let op_name = Commute.op_name
let ops_of = Commute.ops_of

(* --- static evidence (layers 1 and 2) --------------------------------------- *)

(* Does the block read the symbol the op writes (relation atom or free
   constant occurrence)? If not, no member of a same-op batch can
   observe another member's write — the batch is tick-safe
   syntactically. Temporaries are scanned directly: a rule consuming a
   temp that read the symbol is covered by the temp's own mention. *)
let block_reads (u : Program.update) name =
  let reads_in (r : Program.rule) =
    List.exists (fun (n, _) -> n = name) (Formula.rel_atoms r.body)
    || List.exists
         (fun x ->
           x = name && (not (List.mem x u.params)) && not (List.mem x r.vars))
         (Formula.free_vars r.body)
  in
  List.exists reads_in (u.temps @ u.rules)

(* Every rule carries a slab frame in its Support plan: the delta
   backend bounds each member's frontier by slabs, so a group's
   frontiers union into one [`Mask_words] mask. *)
let framed (u : Program.update) =
  u.rules <> []
  && List.for_all
       (fun (r : Program.rule) ->
         match (Support.plan_rule r).Delta_eval.rp_frame with
         | Some { f_out = Slabs _; f_in = Slabs _ } -> true
         | _ -> false)
       u.rules

type source = Commute.source = Syntactic | Frames | Mc_only

let static_evidence p (o : Commute.op) =
  match Commute.block_of p o with
  | None -> (Syntactic, "no update block — default maintenance only")
  | Some (u : Program.update) when u.rules = [] && u.temps = [] ->
      (Syntactic, "empty update block")
  | Some u when not (block_reads u o.op_rel) ->
      (Syntactic, "no rule reads the written symbol across members")
  | Some u when framed u ->
      (Frames, "every rule carries a slab frame — one union mask per group")
  | Some _ -> (Mc_only, "no static batch-safety evidence")

(* --- the laws (layer 3, checked by Mc) -------------------------------------- *)

(* Reference semantics for every law: the singleton-sequence fold on
   the tuple backend. *)
let fold_ref p reqs st = Runner.run ~backend:`Tuple (Runner.restore p st) reqs

(* Absorb law: the exploited code path [Runner.absorb_group] equals the
   fold, on every state and batch. On a cadence, the whole
   [step_batch] pipeline with the verdict forced — expansion, planning
   and dispatch included — is cross-checked too, so the licensed path
   and the checked path cannot drift apart. *)
let absorb_check p o =
  let count = ref 0 in
  fun st argss ->
    incr count;
    let reqs = List.map (Commute.request_of o) argss in
    let fold_s = fold_ref p reqs st in
    let abs_s = Runner.absorb_group (Runner.restore p st) reqs in
    Structure.equal (Runner.structure fold_s) (Runner.structure abs_s)
    && (!count land 7 <> 0
       ||
       let full =
         Runner.step_batch ~backend:`Tuple ~oracle:Runner.null_oracle
           ~defchange:(fun _ _ -> `Absorb)
           (Runner.restore p st) reqs
       in
       Structure.equal (Runner.structure fold_s) (Runner.structure full))

(* Stream law: the delta backend folding the group under one batch
   scope (one mask clear, unioned frontiers) equals the fold. Sound
   unconditionally — superset frontiers re-test with the full rule
   body — but checked anyway so an implementation regression is caught
   here, not in serving. Cadence cross-check on the bulk backend
   (where [`Stream] degenerates to the plain fold). *)
let stream_check p o =
  let count = ref 0 in
  fun st argss ->
    incr count;
    let reqs = List.map (Commute.request_of o) argss in
    let fold_s = fold_ref p reqs st in
    let str_s =
      Runner.step_batch ~backend:`Delta ~oracle:Runner.null_oracle
        ~defchange:(fun _ _ -> `Stream)
        (Runner.restore p st) reqs
    in
    Structure.equal (Runner.structure fold_s) (Runner.structure str_s)
    && (!count land 3 <> 0
       ||
       let bulk_s =
         Runner.step_batch ~backend:`Bulk ~oracle:Runner.null_oracle
           ~defchange:(fun _ _ -> `Stream)
           (Runner.restore p st) reqs
       in
       Structure.equal (Runner.structure fold_s) (Runner.structure bulk_s))

(* FO-definable set-change law: the [insdef]/[deldef] request whose
   formula denotes exactly the member tuples equals the explicit
   sorted fold — i.e. [Request.expand]'s simultaneous pre-state
   reading matches the specification independently recomputed here.
   Ins/del ops only (constants have no set form). *)
let fresh_vars (p : Program.t) k =
  let vocab = Program.vocab p in
  List.init k (fun i ->
      let rec free n = if Vocab.mem_const vocab n then free (n ^ "x") else n in
      free (Printf.sprintf "x%d" i))

let def_check p (o : Commute.op) =
  let vars = fresh_vars p o.op_arity in
  let count = ref 0 in
  fun st argss ->
    incr count;
    let tuples = List.map Array.of_list argss in
    let point t =
      Formula.conj
        (List.mapi (fun i x -> Formula.Eq (Formula.Var x, Formula.Num t.(i))) vars)
    in
    let phi = Formula.disj (List.map point tuples) in
    let req, keep, mk =
      match o.op_kind with
      | `Ins ->
          ( Request.Ins_def (o.op_rel, vars, phi),
            (fun t -> not (Structure.mem st o.op_rel t)),
            fun t -> Request.Ins (o.op_rel, t) )
      | `Del ->
          ( Request.Del_def (o.op_rel, vars, phi),
            (fun t -> Structure.mem st o.op_rel t),
            fun t -> Request.Del (o.op_rel, t) )
      | `Set -> assert false
    in
    let expected =
      List.filter keep (List.sort_uniq Tuple.compare tuples) |> List.map mk
    in
    let fold_s = fold_ref p expected st in
    let backend = if !count land 3 = 0 then `Delta else `Tuple in
    (* [`Fold] forced: this law checks the expansion semantics itself
       (and must not re-enter the installed oracle mid-analysis) *)
    let def_s =
      Runner.step_batch ~backend ~oracle:Runner.null_oracle
        ~defchange:(fun _ _ -> `Fold)
        (Runner.restore p st) [ req ]
    in
    Structure.equal (Runner.structure fold_s) (Runner.structure def_s)

(* --- verdicts --------------------------------------------------------------- *)

type verdict = Absorb | Stream | Fold | Unknown

type cell = {
  d_op : Commute.op;
  d_verdict : verdict;
  d_source : source;
  d_domain : Mc.domain option;  (** the granting law's domain; [Some] on Absorb/Stream *)
  d_checks : int;  (** total model-checker combinations across all laws *)
  d_exhaustive_upto : int;  (** the granting law's exhaustive size bound *)
  d_absorb : Mc.law;
  d_stream : Mc.law;
  d_definable : Mc.law;  (** trivial (0 checks) for [set] ops — no set form *)
  d_reason : string;
}

type matrix = { m_program : string; m_cells : cell list }

let cex_desc what (mc : Mc.result) =
  match mc.mc_cex with
  | Some (n, argss) ->
      Printf.sprintf "%s refuted at n=%d, args %s" what n (Mc.pp_args argss)
  | None -> Printf.sprintf "%s unverified" what

let analyze ?(max_size = 4) ?(budget = 20_000) ?(samples = 48)
    (p : Program.t) =
  let trivial =
    { Mc.law_holds = true; law_domain = Mc.Synthetic; law_checks = 0 }
  in
  let no_mc =
    { Mc.mc_checks = 0; mc_exhaustive_upto = 0; mc_cex = None }
  in
  let cell_of (o : Commute.op) =
    let source, static_reason = static_evidence p o in
    (* the batch laws quantify over the batch size too: every law is
       checked on batches of 1, 2 and 3 members *)
    let shapes =
      List.map (fun k -> List.init k (fun _ -> o.op_arity)) [ 1; 2; 3 ]
    in
    let verify check =
      Mc.verify_law ~seed:0xDEFC ~max_size ~budget ~samples p ~shapes ~check
    in
    let dom_a, mc_a, law_a = verify (absorb_check p o) in
    let dom_s, mc_s, law_s = verify (stream_check p o) in
    let dom_d, mc_d, law_d =
      match o.op_kind with
      | `Set -> (None, no_mc, trivial)
      | `Ins | `Del -> verify (def_check p o)
    in
    let def_ok = law_d.Mc.law_holds in
    let checks = mc_a.mc_checks + mc_s.mc_checks + mc_d.mc_checks in
    let def_note =
      match o.op_kind with
      | `Set -> ""
      | `Ins | `Del ->
          if def_ok then
            Printf.sprintf "; definable-change expansion confirmed %s"
              (Mc.domain_desc dom_d mc_d)
          else Printf.sprintf "; %s" (cex_desc "definable-change expansion" mc_d)
    in
    let verdict, domain, exh, reason =
      if law_a.Mc.law_holds && def_ok then
        ( Absorb,
          dom_a,
          mc_a.mc_exhaustive_upto,
          Printf.sprintf "%s; absorb law confirmed %s%s" static_reason
            (Mc.domain_desc dom_a mc_a) def_note )
      else if law_s.Mc.law_holds && def_ok then
        ( Stream,
          dom_s,
          mc_s.mc_exhaustive_upto,
          Printf.sprintf "%s; %s; stream law confirmed %s%s" static_reason
            (cex_desc "absorb" mc_a) (Mc.domain_desc dom_s mc_s) def_note )
      else if checks = 0 then
        (Unknown, None, 0, "no state/argument combination checked — unverified")
      else
        ( Fold,
          None,
          0,
          Printf.sprintf "%s; %s; %s%s" static_reason (cex_desc "absorb" mc_a)
            (cex_desc "stream" mc_s) def_note )
    in
    {
      d_op = o;
      d_verdict = verdict;
      d_source = source;
      d_domain = domain;
      d_checks = checks;
      d_exhaustive_upto = exh;
      d_absorb = law_a;
      d_stream = law_s;
      d_definable = law_d;
      d_reason = reason;
    }
  in
  { m_program = p.name; m_cells = List.map cell_of (ops_of p) }

(* --- lookups ---------------------------------------------------------------- *)

let find_cell m kind rel =
  List.find_opt
    (fun c -> c.d_op.Commute.op_kind = kind && c.d_op.Commute.op_rel = rel)
    m.m_cells

let verdict m kind rel =
  match find_cell m kind rel with Some c -> c.d_verdict | None -> Unknown

let matrix_of = Mc.memo ( == ) (fun p -> analyze p)

(* --- the runner oracle ------------------------------------------------------ *)

let oracle_of (p : Program.t) kind rel : Runner.defchange_verdict =
  match verdict (matrix_of p) kind rel with
  | Absorb -> `Absorb
  | Stream -> `Stream
  | Fold | Unknown -> `Fold

let install () = Runner.set_defchange_oracle oracle_of

(* --- rendering -------------------------------------------------------------- *)

let verdict_string = function
  | Absorb -> "absorb"
  | Stream -> "stream"
  | Fold -> "fold"
  | Unknown -> "unknown"

let verdict_char = function
  | Absorb -> 'A'
  | Stream -> 'S'
  | Fold -> 'F'
  | Unknown -> '?'

let source_string = Commute.source_string

let pp ppf m =
  Format.fprintf ppf
    "%s: %d op(s) — A absorb / S stream / F fold / ? unknown@." m.m_program
    (List.length m.m_cells);
  List.iter
    (fun c ->
      Format.fprintf ppf "  %c %s: %s [%s] — %s@."
        (verdict_char c.d_verdict)
        (op_name c.d_op)
        (verdict_string c.d_verdict)
        (source_string c.d_source)
        c.d_reason;
      Format.fprintf ppf "      %a; %a; %a@." Mc.pp_law ("absorb", c.d_absorb)
        Mc.pp_law ("stream", c.d_stream) Mc.pp_law ("definable", c.d_definable))
    m.m_cells

let to_json m =
  Json.Obj
    [
      ("version", Json.Int Report.version);
      ("program", Json.Str m.m_program);
      ( "cells",
        Json.List
          (List.map
             (fun c ->
               Json.Obj
                 [
                   ("op", Json.Str (op_name c.d_op));
                   ("arity", Json.Int c.d_op.Commute.op_arity);
                   ("verdict", Json.Str (verdict_string c.d_verdict));
                   ("source", Json.Str (source_string c.d_source));
                   ( "domain",
                     match c.d_domain with
                     | Some d -> Json.Str (Mc.domain_string d)
                     | None -> Json.Null );
                   ("checks", Json.Int c.d_checks);
                   ("exhaustive_upto", Json.Int c.d_exhaustive_upto);
                   ("absorb", Mc.law_to_json c.d_absorb);
                   ("stream", Mc.law_to_json c.d_stream);
                   ("definable", Mc.law_to_json c.d_definable);
                   ("reason", Json.Str c.d_reason);
                 ])
             m.m_cells) );
    ]
