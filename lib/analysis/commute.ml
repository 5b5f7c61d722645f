open Dynfo_logic
open Dynfo

(* Static update-commutativity analysis, following the PR-4 "verified
   rewrite" discipline: every static claim is model-checked before it is
   trusted. Three layers produce a *candidate* verdict per pair of
   update operations — (1) syntactic independence on the Dataflow
   read/write sets, (2) disjoint fully-pinned frames under the
   distinct-argument side condition — and layer (3), the bounded model
   checker [Mc], is the only thing that can promote a candidate to
   [Commute]: exhaustive over synthetic structures while the budget
   lasts, seeded sampling beyond, and a reachable-state fallback (random
   request prefixes from the initial state) for laws that hold on every
   state the serving layer can actually be in but not on arbitrary
   auxiliary contents. Anything unconfirmed degrades to [Unknown], which
   every consumer treats as [Conflict]. *)

(* --- operations ------------------------------------------------------------ *)

type op = { op_kind : [ `Ins | `Del | `Set ]; op_rel : string; op_arity : int }

let op_name o =
  Printf.sprintf "%s %s" (Program.kind_string o.op_kind) o.op_rel

let same_op a b = a.op_kind = b.op_kind && a.op_rel = b.op_rel

(* The input address an op mutates: ins/del share their relation,
   set owns its constant. The distinct-argument side condition applies
   exactly to pairs sharing an address. *)
let addr o =
  match o.op_kind with
  | `Ins | `Del -> `R o.op_rel
  | `Set -> `C o.op_rel

let ops_of (p : Program.t) =
  List.concat_map
    (fun (s : Vocab.sym) ->
      [
        { op_kind = `Ins; op_rel = s.name; op_arity = s.arity };
        { op_kind = `Del; op_rel = s.name; op_arity = s.arity };
      ])
    (Vocab.relations p.input_vocab)
  @ List.map
      (fun c -> { op_kind = `Set; op_rel = c; op_arity = 1 })
      (Vocab.constants p.input_vocab)

let block_of (p : Program.t) o =
  let table =
    match o.op_kind with
    | `Ins -> p.on_ins
    | `Del -> p.on_del
    | `Set -> p.on_set
  in
  List.assoc_opt o.op_rel table

let request_of o args =
  match o.op_kind with
  | `Ins -> Request.ins o.op_rel args
  | `Del -> Request.del o.op_rel args
  | `Set -> Request.set o.op_rel (List.hd args)

(* --- read/write sets (layer 1) --------------------------------------------- *)

let dedup xs =
  List.rev (List.fold_left (fun acc x -> if List.mem x acc then acc else x :: acc) [] xs)

(* Everything a step for this op can change: its own input relation or
   constant (explicit rule or default maintenance) plus every rule
   target of its block. Temporaries are discarded after the update and
   never escape. This set is exact, which is what makes the
   query-invisibility check purely static. *)
let writes_of p o =
  let targets =
    match block_of p o with
    | None -> []
    | Some (u : Program.update) ->
        List.map (fun (r : Program.rule) -> r.target) u.rules
  in
  dedup (o.op_rel :: targets)

(* Relations a block reads, temporaries expanded (a rule consuming a
   temp is charged the pre-state relations the temp's definition read —
   the same expansion Dataflow performs), plus every structure constant
   a body mentions. Over-approximating is fine: reads only ever make
   layer 1 more conservative, and layer 3 re-adjudicates everything. *)
let reads_of_update vocab (u : Program.update) =
  let expand env names =
    List.concat_map
      (fun n ->
        match List.assoc_opt n env with Some rs -> rs | None -> [ n ])
      names
  in
  let atom_names body = List.map fst (Formula.rel_atoms body) in
  let env =
    List.fold_left
      (fun env (t : Program.rule) ->
        (t.target, dedup (expand env (atom_names t.body))) :: env)
      [] u.temps
  in
  let rel_reads =
    List.concat_map snd env
    @ List.concat_map
        (fun (r : Program.rule) -> expand env (atom_names r.body))
        u.rules
  in
  let const_reads =
    List.concat_map
      (fun (r : Program.rule) ->
        List.filter
          (fun x ->
            (not (List.mem x u.params))
            && (not (List.mem x r.vars))
            && Vocab.mem_const vocab x)
          (Formula.free_vars r.body))
      (u.temps @ u.rules)
  in
  dedup (rel_reads @ const_reads)

let reads_of p o =
  match block_of p o with
  | None -> []
  | Some u -> reads_of_update (Program.vocab p) u

let disjoint a b = not (List.exists (fun x -> List.mem x b) a)

(* Layer 1: the ops touch entirely separate parts of the structure —
   neither writes anything the other reads or writes. Never fires on
   pairs sharing an input address (both write it). *)
let syntactic_independent (w1, r1) (w2, r2) =
  disjoint w1 (r2 @ w2) && disjoint w2 r1

(* --- frame-based argument (layer 2) ---------------------------------------- *)

(* A rule writes only the cell pinned to the op's own parameter tuple
   when its support plan is anchorless and fully pinned with pin i =
   Var params.(i). Under the distinct-argument side condition two such
   writes to the same relation land on different cells. *)
let self_pinned_rule params (r : Program.rule) =
  let plan = Support.plan_rule r in
  let arity = List.length r.vars in
  (* the whole parameter tuple must address the cell — a prefix (or a
     0-ary target) would let distinct requests collide on one cell *)
  arity = List.length params
  &&
  let pins_ok slabs =
    List.for_all
      (fun (s : Delta_eval.slab) ->
        s.s_anchor = None
        && List.length s.s_pins = arity
        && List.for_all
             (fun (pin : Delta_eval.pin) ->
               match (pin.value, List.nth_opt params pin.coord) with
               | Formula.Var x, Some param -> x = param
               | _ -> false)
             s.s_pins)
      slabs
  in
  match plan.Delta_eval.rp_frame with
  | Some { f_out = Slabs out; f_in = Slabs inn } -> pins_ok out && pins_ok inn
  | _ -> false

(* Does [o] write relation [t] only at the cell addressed by its own
   parameters? Default maintenance of the input relation qualifies by
   construction; an explicit rule must have a self-pinned support. *)
let self_pinned p o t =
  match block_of p o with
  | None -> t = o.op_rel
  | Some (u : Program.update) -> (
      match
        List.find_opt (fun (r : Program.rule) -> r.target = t) u.rules
      with
      | None -> t = o.op_rel (* default maintenance *)
      | Some r -> self_pinned_rule u.params r)

(* Reads excluding each shared target's frame self-atom: for a rule
   [T(x̄) <- (T(x̄) ∧ A) ∨ C] over a shared [T], the read of [T] through
   the frame atom is cell-local (the new value at x̄ depends on the old
   value at the same x̄), so under disjoint written cells it cannot
   observe the other op's write; only [A]'s and [C]'s reads remain
   external. Unframed rules and temporaries keep their full read sets. *)
let external_reads p o shared =
  match block_of p o with
  | None -> []
  | Some (u : Program.update) ->
      let vocab = Program.vocab p in
      let rules' =
        List.map
          (fun (r : Program.rule) ->
            if List.mem r.target shared then
              match
                Support.find_frame ~target:r.target ~vars:r.vars r.body
              with
              | Some (a, c) -> { r with body = Formula.And (a, c) }
              | None -> r
            else r)
          u.rules
      in
      reads_of_update vocab { u with rules = rules' }

let frame_independent p o1 o2 (w1, w2) =
  let shared = List.filter (fun t -> List.mem t w2) w1 in
  let shared_ok =
    List.for_all
      (fun t ->
        (* distinctness only bites when both ops update the same input
           address, so colliding parameter tuples are ruled out *)
        addr o1 = addr o2 && self_pinned p o1 t && self_pinned p o2 t)
      shared
  in
  shared_ok
  && disjoint w1 (external_reads p o2 shared)
  && disjoint w2 (external_reads p o1 shared)

(* --- the properties (layer 3, checked by Mc) ------------------------------- *)

let step_t = Runner.step ~backend:`Tuple
let step_b = Runner.step ~backend:`Bulk

let commute_check p o1 o2 =
  let count = ref 0 in
  fun st argss ->
    match argss with
    | [ a1; a2 ] ->
        incr count;
        let r1 = request_of o1 a1 and r2 = request_of o2 a2 in
        let s0 = Runner.restore p st in
        let s12 = step_t (step_t s0 r1) r2 in
        let s21 = step_t (step_t s0 r2) r1 in
        Structure.equal (Runner.structure s12) (Runner.structure s21)
        && (* cross-check the bulk evaluator on a cadence — same
              semantics, different code path *)
        (!count land 7 <> 0
        ||
        let b12 = step_b (step_b s0 r1) r2 in
        let b21 = step_b (step_b s0 r2) r1 in
        Structure.equal (Runner.structure b12) (Runner.structure b21)
        && Structure.equal (Runner.structure b12) (Runner.structure s12))
    | _ -> assert false

(* the side condition: arguments must differ when both requests address
   the same input relation or constant *)
let commute_pre o1 o2 _st argss =
  match argss with
  | [ a1; a2 ] -> addr o1 <> addr o2 || a1 <> a2
  | _ -> assert false

let idempotent_check p o st argss =
  match argss with
  | [ a ] ->
      let r = request_of o a in
      let s1 = step_t (Runner.restore p st) r in
      let s2 = step_t s1 r in
      Structure.equal (Runner.structure s1) (Runner.structure s2)
  | _ -> assert false

(* a request that does not change the input: the op's block must be the
   identity on the whole structure (the paper's no-op property) *)
let nop_pre o st argss =
  match argss with
  | [ a ] -> (
      match o.op_kind with
      | `Ins -> Structure.mem st o.op_rel (Array.of_list a)
      | `Del -> not (Structure.mem st o.op_rel (Array.of_list a))
      | `Set -> Structure.const st o.op_rel = List.hd a)
  | _ -> assert false

let nop_check p o st argss =
  match argss with
  | [ a ] ->
      let s1 = step_t (Runner.restore p st) (request_of o a) in
      Structure.equal st (Runner.structure s1)
  | _ -> assert false

(* --- verdicts --------------------------------------------------------------- *)

type verdict = Commute | Conflict | Unknown

type source = Syntactic | Frames | Mc_only

type cell = {
  c_left : op;
  c_right : op;
  c_verdict : verdict;
  c_source : source;
  c_domain : Mc.domain option;  (** [Some] exactly on [Commute] *)
  c_checks : int;
  c_exhaustive_upto : int;
  c_reason : string;
}

type op_report = {
  or_op : op;
  or_writes : string list;
  or_reads : string list;
  or_idempotent : Mc.law;
  or_nop : Mc.law;
}

type matrix = {
  m_program : string;
  m_ops : op_report list;
  m_cells : cell list;  (** unordered pairs, diagonal included *)
}

let analyze ?(max_size = 4) ?(budget = 20_000) ?(samples = 48)
    (p : Program.t) =
  let ops = ops_of p in
  let rw = List.map (fun o -> (o, (writes_of p o, reads_of p o))) ops in
  let verify = Mc.verify_law ~seed:0xC033 ~max_size ~budget ~samples in
  let law_of ~arity ?pre check =
    let _, _, law = verify ?pre p ~shapes:[ [ arity ] ] ~check in
    law
  in
  let op_reports =
    List.map
      (fun o ->
        let w, r = List.assq o rw in
        {
          or_op = o;
          or_writes = w;
          or_reads = r;
          or_idempotent = law_of ~arity:o.op_arity (idempotent_check p o);
          or_nop = law_of ~arity:o.op_arity ~pre:(nop_pre o) (nop_check p o);
        })
      ops
  in
  let cell_of o1 o2 =
    let (w1, r1) = List.assq o1 rw and (w2, r2) = List.assq o2 rw in
    match (o1.op_kind, o2.op_kind) with
    | `Set, `Set when o1.op_rel = o2.op_rel ->
        (* distinct values by the side condition: last writer wins and
           the final constant differs between the two orders *)
        {
          c_left = o1;
          c_right = o2;
          c_verdict = Conflict;
          c_source = Syntactic;
          c_domain = None;
          c_checks = 0;
          c_exhaustive_upto = 0;
          c_reason =
            Printf.sprintf "last-writer-wins on constant %s" o1.op_rel;
        }
    | _ ->
        let source =
          if syntactic_independent (w1, r1) (w2, r2) then Syntactic
          else if frame_independent p o1 o2 (w1, w2) then Frames
          else Mc_only
        in
        let domain, (mc : Mc.result), _ =
          verify ~pre:(commute_pre o1 o2) p
            ~shapes:[ [ o1.op_arity; o2.op_arity ] ]
            ~check:(commute_check p o1 o2)
        in
        let static_reason =
          match source with
          | Syntactic -> "disjoint read/write sets"
          | Frames -> "disjoint self-pinned frames under distinct arguments"
          | Mc_only -> "no static independence proof"
        in
        let verdict, reason =
          match (domain, mc.mc_cex) with
          | Some Mc.Synthetic, _ ->
              ( Commute,
                Printf.sprintf "%s; confirmed %s" static_reason
                  (Mc.domain_desc domain mc) )
          | Some Mc.Reachable, _ ->
              ( Commute,
                Printf.sprintf
                  "%s; synthetic counterexample has unreachable auxiliaries \
                   — confirmed %s"
                  static_reason (Mc.domain_desc domain mc) )
          | None, Some (n, argss) ->
              ( Conflict,
                Printf.sprintf "refuted at n=%d, args %s" n (Mc.pp_args argss) )
          | None, None ->
              (Unknown, "no state/argument combination admissible — unverified")
        in
        {
          c_left = o1;
          c_right = o2;
          c_verdict = verdict;
          c_source = source;
          c_domain = domain;
          c_checks = mc.mc_checks;
          c_exhaustive_upto = mc.mc_exhaustive_upto;
          c_reason = reason;
        }
  in
  let rec pairs = function
    | [] -> []
    | o :: rest -> List.map (cell_of o) (o :: rest) @ pairs rest
  in
  { m_program = p.name; m_ops = op_reports; m_cells = pairs ops }

(* --- lookups ---------------------------------------------------------------- *)

let find_cell m o1 o2 =
  List.find_opt
    (fun c ->
      (same_op c.c_left o1 && same_op c.c_right o2)
      || (same_op c.c_left o2 && same_op c.c_right o1))
    m.m_cells

let verdict m o1 o2 =
  match find_cell m o1 o2 with Some c -> c.c_verdict | None -> Unknown

let op_report m o =
  List.find_opt (fun r -> same_op r.or_op o) m.m_ops

(* --- memoized analysis ------------------------------------------------------ *)

let matrix_of = Mc.memo ( == ) (fun p -> analyze p)

(* --- the runner oracle ------------------------------------------------------ *)

(* Set requests (Ins_set/Ins_def/...) are composites of many singletons;
   the pairwise laws here are verified for singleton ops only, so the
   oracle answers [false] for them (they are expanded before the batch
   planner consults the oracle again — nothing is lost downstream). *)
let is_singleton = function
  | Request.Ins _ | Request.Del _ | Request.Set _ -> true
  | Request.Ins_set _ | Request.Del_set _ | Request.Ins_def _
  | Request.Del_def _ ->
      false

let op_of_request (p : Program.t) = function
  | Request.Ins (n, t) ->
      { op_kind = `Ins; op_rel = n; op_arity = Array.length t }
  | Request.Del (n, t) ->
      { op_kind = `Del; op_rel = n; op_arity = Array.length t }
  | Request.Set (n, _) ->
      ignore p;
      { op_kind = `Set; op_rel = n; op_arity = 1 }
  | Request.Ins_set _ | Request.Del_set _ | Request.Ins_def _
  | Request.Del_def _ ->
      invalid_arg "Commute.op_of_request: set request (guard with is_singleton)"

let query_reads (p : Program.t) =
  let vocab = Program.vocab p in
  let reads params f =
    dedup
      (List.map fst (Formula.rel_atoms f)
      @ List.filter
          (fun x -> (not (List.mem x params)) && Vocab.mem_const vocab x)
          (Formula.free_vars f))
  in
  (None, reads [] p.query)
  :: List.map (fun (n, vars, body) -> (Some n, reads vars body)) p.queries

let oracle_of (p : Program.t) : Runner.commute_oracle =
  let m = matrix_of p in
  let qreads = query_reads p in
  let writes = List.map (fun r -> (r.or_op, r.or_writes)) m.m_ops in
  let commutes r1 r2 =
    verdict m (op_of_request p r1) (op_of_request p r2) = Commute
  in
  let args_equal r1 r2 =
    match (r1, r2) with
    | Request.Ins (_, a), Request.Ins (_, b)
    | Request.Ins (_, a), Request.Del (_, b)
    | Request.Del (_, a), Request.Ins (_, b)
    | Request.Del (_, a), Request.Del (_, b) ->
        Tuple.compare a b = 0
    | Request.Set (_, a), Request.Set (_, b) -> a = b
    | _ -> false
  in
  let law_of pick r =
    is_singleton r
    &&
    match op_report m (op_of_request p r) with
    | Some rep -> (pick rep).Mc.law_holds
    | None -> false
  in
  {
    co_swap =
      (fun r1 r2 ->
        if not (is_singleton r1 && is_singleton r2) then false
        else if r1 = r2 then true
        else if
          addr (op_of_request p r1) = addr (op_of_request p r2)
          && args_equal r1 r2
        then false (* the side condition excludes equal arguments *)
        else commutes r1 r2);
    co_elidable = law_of (fun rep -> rep.or_nop);
    co_dedupe = law_of (fun rep -> rep.or_idempotent);
    co_invisible =
      (fun r qname ->
        is_singleton r
        &&
        match
          ( List.assoc_opt (op_of_request p r) writes,
            List.assoc_opt qname qreads )
        with
        | Some w, Some reads -> disjoint w reads
        | _ -> false);
  }

let install () = Runner.set_commute_oracle oracle_of

(* --- rendering -------------------------------------------------------------- *)

let verdict_string = function
  | Commute -> "commute"
  | Conflict -> "conflict"
  | Unknown -> "unknown"

let verdict_char = function Commute -> 'C' | Conflict -> 'X' | Unknown -> '?'

let source_string = function
  | Syntactic -> "syntactic"
  | Frames -> "frames"
  | Mc_only -> "mc-only"

let pp ppf m =
  let names = List.map (fun r -> op_name r.or_op) m.m_ops in
  let width =
    List.fold_left (fun acc n -> max acc (String.length n)) 7 names
  in
  Format.fprintf ppf
    "%s: %d op(s) — C commute / X conflict / ? unknown@." m.m_program
    (List.length m.m_ops);
  Format.fprintf ppf "  %*s" width "";
  List.iter (fun n -> Format.fprintf ppf "  %-*s" width n) names;
  Format.fprintf ppf "@.";
  List.iter
    (fun r1 ->
      Format.fprintf ppf "  %-*s" width (op_name r1.or_op);
      List.iter
        (fun r2 ->
          Format.fprintf ppf "  %-*s" width
            (String.make 1 (verdict_char (verdict m r1.or_op r2.or_op))))
        m.m_ops;
      Format.fprintf ppf "@.")
    m.m_ops;
  List.iter
    (fun r ->
      Format.fprintf ppf "  %s: writes %s; %a; %a@." (op_name r.or_op)
        (String.concat "," r.or_writes)
        Mc.pp_law ("idempotent", r.or_idempotent)
        Mc.pp_law ("no-op on redundant requests", r.or_nop))
    m.m_ops;
  List.iter
    (fun c ->
      Format.fprintf ppf "  (%s, %s): %s [%s] — %s@." (op_name c.c_left)
        (op_name c.c_right)
        (verdict_string c.c_verdict)
        (source_string c.c_source)
        c.c_reason)
    m.m_cells

let to_json m =
  let strs xs = Json.List (List.map (fun x -> Json.Str x) xs) in
  Json.Obj
    [
      ("version", Json.Int Report.version);
      ("program", Json.Str m.m_program);
      ( "ops",
        Json.List
          (List.map
             (fun r ->
               Json.Obj
                 [
                   ("op", Json.Str (op_name r.or_op));
                   ("arity", Json.Int r.or_op.op_arity);
                   ("writes", strs r.or_writes);
                   ("reads", strs r.or_reads);
                   ("idempotent", Mc.law_to_json r.or_idempotent);
                   ("nop", Mc.law_to_json r.or_nop);
                 ])
             m.m_ops) );
      ( "cells",
        Json.List
          (List.map
             (fun c ->
               Json.Obj
                 [
                   ("left", Json.Str (op_name c.c_left));
                   ("right", Json.Str (op_name c.c_right));
                   ("verdict", Json.Str (verdict_string c.c_verdict));
                   ("source", Json.Str (source_string c.c_source));
                   ( "domain",
                     match c.c_domain with
                     | Some d -> Json.Str (Mc.domain_string d)
                     | None -> Json.Null );
                   ("checks", Json.Int c.c_checks);
                   ("exhaustive_upto", Json.Int c.c_exhaustive_upto);
                   ("reason", Json.Str c.c_reason);
                 ])
             m.m_cells) );
    ]
