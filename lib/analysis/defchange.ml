open Dynfo_logic
open Dynfo

(* Definable-change analysis: which whole-batch evaluation strategy is
   safe per (program, update op)? The serving layer coalesces batches
   into one evaluation tick; this module licenses the one exploitation
   [Runner.step_batch] knows beyond the singleton fold:

   - [Absorb]: apply the input changes and skip the update block —
     default maintenance for the whole group.

   Every other op folds its members one by one, each evaluating its own
   frontier. Following the PR-4/PR-8 discipline, static evidence only
   nominates (an op with no update block, or an empty one, has nothing
   but default maintenance to do); the bounded model checker [Mc] is the
   only thing that grants a verdict: it runs the {e actual exploited
   code paths} ([Runner.absorb_group], [Runner.step_batch ~defchange])
   against the singleton-sequence fold over batches of size 1..3,
   exhaustively while the budget lasts and with seeded sampling beyond,
   plus the FO-definable set-change forms ([ins*]/[insdef]) against
   their explicit expansion. Anything unverified is [Unknown], which
   every consumer treats as [Fold] — the unchanged singleton fold. *)

(* --- operations (shared with Commute) -------------------------------------- *)

let op_name = Commute.op_name
let ops_of = Commute.ops_of

(* --- static evidence ------------------------------------------------------ *)

type source = Commute.source = Syntactic | Frames | Mc_only

let static_evidence p (o : Commute.op) =
  match Commute.block_of p o with
  | None -> (Syntactic, "no update block — default maintenance only")
  | Some (u : Program.update) when u.rules = [] && u.temps = [] ->
      (Syntactic, "empty update block")
  | Some _ -> (Mc_only, "no static batch-safety evidence")

(* --- the laws (checked by Mc) --------------------------------------------- *)

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

type verdict = Absorb | Fold | Unknown

type cell = {
  d_op : Commute.op;
  d_verdict : verdict;
  d_source : source;
  d_domain : Mc.domain option;  (** the granting law's domain; [Some] on Absorb *)
  d_checks : int;  (** total model-checker combinations across all laws *)
  d_exhaustive_upto : int;  (** the granting law's exhaustive size bound *)
  d_absorb : Mc.law;
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
    let dom_d, mc_d, law_d =
      match o.op_kind with
      | `Set -> (None, no_mc, trivial)
      | `Ins | `Del -> verify (def_check p o)
    in
    let def_ok = law_d.Mc.law_holds in
    let checks = mc_a.mc_checks + mc_d.mc_checks in
    let def_note =
      match o.op_kind with
      | `Set -> ""
      | `Ins | `Del ->
          if def_ok then
            Printf.sprintf "; definable-change expansion confirmed %s"
              (Mc.domain_desc dom_d mc_d)
          else Printf.sprintf "; %s" (cex_desc "definable-change expansion" mc_d)
    in
    (* Absorb skips the update block outright, so the reachable states'
       bounded prefixes are too weak a domain for it: at n = 6,
       pad_reach_a's reachable-only absorb of [Up] groups diverges from
       the fold. Only a synthetic confirmation grants it. *)
    let absorb_ok = law_a.Mc.law_holds && law_a.Mc.law_domain = Mc.Synthetic in
    let absorb_note =
      if law_a.Mc.law_holds then "absorb held on reachable states only"
      else cex_desc "absorb" mc_a
    in
    let verdict, domain, exh, reason =
      if absorb_ok && def_ok then
        ( Absorb,
          dom_a,
          mc_a.mc_exhaustive_upto,
          Printf.sprintf "%s; absorb law confirmed %s%s" static_reason
            (Mc.domain_desc dom_a mc_a) def_note )
      else if checks = 0 then
        (Unknown, None, 0, "no state/argument combination checked — unverified")
      else
        ( Fold,
          None,
          0,
          Printf.sprintf "%s; %s%s" static_reason absorb_note def_note )
    in
    {
      d_op = o;
      d_verdict = verdict;
      d_source = source;
      d_domain = domain;
      d_checks = checks;
      d_exhaustive_upto = exh;
      d_absorb = law_a;
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
  | Fold | Unknown -> `Fold

let install () = Runner.set_defchange_oracle oracle_of

(* --- rendering -------------------------------------------------------------- *)

let verdict_string = function
  | Absorb -> "absorb"
  | Fold -> "fold"
  | Unknown -> "unknown"

let verdict_char = function
  | Absorb -> 'A'
  | Fold -> 'F'
  | Unknown -> '?'

let source_string = Commute.source_string

let pp ppf m =
  Format.fprintf ppf
    "%s: %d op(s) — A absorb / F fold / ? unknown@." m.m_program
    (List.length m.m_cells);
  List.iter
    (fun c ->
      Format.fprintf ppf "  %c %s: %s [%s] — %s@."
        (verdict_char c.d_verdict)
        (op_name c.d_op)
        (verdict_string c.d_verdict)
        (source_string c.d_source)
        c.d_reason;
      Format.fprintf ppf "      %a; %a@." Mc.pp_law ("absorb", c.d_absorb)
        Mc.pp_law ("definable", c.d_definable))
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
                   ("definable", Mc.law_to_json c.d_definable);
                   ("reason", Json.Str c.d_reason);
                 ])
             m.m_cells) );
    ]
