open Dynfo_logic
open Dynfo
module D = Delta_eval

(* --- formula surgery ------------------------------------------------------ *)

let rec disjuncts (f : Formula.t) =
  match f with Or (a, b) -> disjuncts a @ disjuncts b | f -> [ f ]

let rec conjuncts (f : Formula.t) =
  match f with And (a, b) -> conjuncts a @ conjuncts b | f -> [ f ]

(* B ≡ (R(x̄) ∧ A) ∨ C: find a disjunct containing the exact frame atom
   [target(vars...)] as a conjunct; A is that disjunct's residue, C the
   remaining disjuncts. Only flattens ∨/∧ trees — never crosses a
   quantifier, so the frame atom's variables are the rule's own tuple
   variables. Duplicate tuple variables would make coordinate pinning
   ambiguous; such rules (none in the registry) get no frame. *)
let find_frame ~target ~vars body =
  if List.length (List.sort_uniq String.compare vars) <> List.length vars
  then None
  else
    let expected = List.map (fun v -> Formula.Var v) vars in
    let is_frame_atom (f : Formula.t) =
      match f with
      | Rel (r, ts) -> r = target && ts = expected
      | _ -> false
    in
    let rec remove_first = function
      | [] -> []
      | c :: rest -> if is_frame_atom c then rest else c :: remove_first rest
    in
    let rec split seen = function
      | [] -> None
      | d :: rest ->
          let cs = conjuncts d in
          if List.exists is_frame_atom cs then
            let a = Formula.conj (remove_first cs) in
            let c = Formula.disj (List.rev_append seen rest) in
            Some (a, c)
          else split (d :: seen) rest
    in
    split [] (disjuncts body)

(* --- the support abstract domain ------------------------------------------ *)

(* [coords] maps each tuple variable to its coordinate; [bound] holds the
   variables of enclosing quantifiers, innermost first — a tuple variable
   in [bound] is shadowed and no longer pinnable, and a formula or term
   mentioning any [coords]/[bound] name is not closed (not evaluable at
   mask-build time, where only parameters and constants have values). *)
type ctx = { coords : (string * int) list; bound : string list }

let closed_name ctx x =
  (not (List.mem_assoc x ctx.coords)) && not (List.mem x ctx.bound)

let closed_term ctx (t : Formula.term) =
  match t with Formula.Var x -> closed_name ctx x | Num _ | Min | Max -> true

let closed ctx f = List.for_all (closed_name ctx) (Formula.free_vars f)

let pinnable ctx x =
  (not (List.mem x ctx.bound)) && List.mem_assoc x ctx.coords

let top = D.Top
let bot = D.Slabs []
let is_bot = function D.Slabs [] -> true | _ -> false
let slab ?(guards = []) ?(pins = []) ?anchor () =
  { D.s_guards = guards; s_pins = pins; s_anchor = anchor }

let guard_slab g = D.Slabs [ slab ~guards:[ g ] () ]

let slab_bounded (s : D.slab) = s.D.s_pins <> [] || s.D.s_anchor <> None
let slab_guarded (s : D.slab) = s.D.s_guards <> []

let join a b =
  match (a, b) with
  | D.Top, _ | _, D.Top -> D.Top
  | D.Slabs xs, D.Slabs ys -> D.Slabs (xs @ ys)

(* Conjunction. Sound because a conjunction is contained in each
   conjunct: any one conjunct's bound works, and intersecting pins/guards
   only shrinks it. Single-slab conjuncts merge into one slab (pins and
   guards accumulate; of two anchors the more-pinned one is kept — the
   other is a coarser bound and may be dropped). If the merged slab has
   no pins/anchor of its own but some conjunct is a disjunction of
   bounded slabs, distribute the merged guards/pins into that
   disjunction: g ∧ (s₁ ∨ s₂) ⊆ (g∧s₁) ∨ (g∧s₂). *)
let meet sups =
  if List.exists is_bot sups then bot
  else begin
    let singles =
      List.filter_map
        (function D.Slabs [ s ] -> Some s | _ -> None)
        sups
    in
    let multis =
      List.filter_map
        (function D.Slabs (_ :: _ :: _ as l) -> Some l | _ -> None)
        sups
    in
    let merge_two a b =
      {
        D.s_guards = a.D.s_guards @ b.D.s_guards;
        s_pins = a.D.s_pins @ b.D.s_pins;
        s_anchor =
          (match (a.D.s_anchor, b.D.s_anchor) with
          | Some x, Some y ->
              if List.length x.D.a_coords >= List.length y.D.a_coords then
                Some x
              else Some y
          | (Some _ as x), None -> x
          | None, y -> y);
      }
    in
    let merged =
      match singles with
      | [] -> None
      | s :: rest -> Some (List.fold_left merge_two s rest)
    in
    let bounded_multi = List.find_opt (List.for_all slab_bounded) multis in
    match (merged, bounded_multi) with
    | Some m, _ when slab_bounded m -> D.Slabs [ m ]
    | Some m, Some l -> D.Slabs (List.map (merge_two m) l)
    | Some m, None when slab_guarded m -> D.Slabs [ m ]
    | _, Some l -> D.Slabs l
    | _, None -> ( match multis with l :: _ -> D.Slabs l | [] -> D.Top)
  end

(* x = t with x pinnable and t closed pins coordinate x to t's runtime
   value. x = y between two tuple variables (the diagonal) is not a
   cylinder; no bound. *)
let pin_sup ctx a b =
  let pin x t =
    D.Slabs
      [ slab ~pins:[ { D.coord = List.assoc x ctx.coords; value = t } ] () ]
  in
  match (a, b) with
  | Formula.Var x, t when pinnable ctx x && closed_term ctx t -> pin x t
  | t, Formula.Var x when pinnable ctx x && closed_term ctx t -> pin x t
  | _ -> top

(* A positive atom S(t̄): if φ holds at x̄ then the evaluated argument
   tuple is a member of S, so every coordinate argued by a pinnable
   tuple variable is pinned by some member — enumerate S's members at
   mask-build time. Positions holding closed terms become membership
   checks; positions holding quantified variables are unconstrained.
   With no pinnable position the bound is the whole space: Top. *)
let anchor_sup ctx r ts =
  let coords = ref [] and checks = ref [] in
  List.iteri
    (fun j (t : Formula.term) ->
      match t with
      | Var x when List.mem x ctx.bound -> ()
      | Var x when List.mem_assoc x ctx.coords ->
          coords := (j, List.assoc x ctx.coords) :: !coords
      | t when closed_term ctx t -> checks := (j, t) :: !checks
      | _ -> ())
    ts;
  if !coords = [] then top
  else
    D.Slabs
      [
        slab
          ~anchor:
            {
              D.a_rel = r;
              a_coords = List.rev !coords;
              a_checks = List.rev !checks;
            }
          ();
      ]

(* sup ctx f: an upper bound on the tuples x̄ where f can hold.
   sup_neg ctx f: the same for ¬f. Quantifiers pass through both ways:
   over a nonempty universe ∃v g and ∀v g each imply g at some
   assignment of v, and the bound of g never depends on v (v is recorded
   as bound, so it cannot be pinned and cannot appear in guards). *)
let rec sup ctx (f : Formula.t) : D.sup =
  match f with
  | False -> bot
  | True -> top
  | _ when closed ctx f -> guard_slab f
  | Eq (a, b) -> pin_sup ctx a b
  | Rel (r, ts) -> anchor_sup ctx r ts
  | And _ -> meet (List.map (sup ctx) (conjuncts f))
  | Or (a, b) -> join (sup ctx a) (sup ctx b)
  | Not g -> sup_neg ctx g
  | Implies (a, b) -> join (sup_neg ctx a) (sup ctx b)
  | Exists (vs, g) | Forall (vs, g) ->
      sup { ctx with bound = vs @ ctx.bound } g
  | Iff _ | Le _ | Lt _ | Bit _ -> top

and sup_neg ctx (f : Formula.t) : D.sup =
  match f with
  | True -> bot
  | False -> top
  | _ when closed ctx f -> guard_slab (Formula.Not f)
  | Not g -> sup ctx g
  | And (a, b) -> join (sup_neg ctx a) (sup_neg ctx b)
  | Or _ -> meet (List.map (sup_neg ctx) (disjuncts f))
  | Implies (a, b) -> meet [ sup ctx a; sup_neg ctx b ]
  | Exists (vs, g) | Forall (vs, g) ->
      sup_neg { ctx with bound = vs @ ctx.bound } g
  | Iff _ | Eq _ | Le _ | Lt _ | Bit _ | Rel _ -> top

(* --- rule / block / program plans ----------------------------------------- *)

let plan_rule (r : Program.rule) : D.rule_plan =
  let frame =
    match find_frame ~target:r.target ~vars:r.vars r.body with
    | None -> None
    | Some (a, c) ->
        let ctx = { coords = List.mapi (fun i v -> (v, i)) r.vars; bound = [] } in
        (* out: members where ¬(A ∨ C) = ¬A ∧ ¬C may hold;
           in: non-members where C may hold *)
        let f_out = meet [ sup_neg ctx a; sup_neg ctx c ] in
        let f_in = sup ctx c in
        Some { D.f_out; f_in }
  in
  {
    D.rp_target = r.target;
    rp_vars = r.vars;
    rp_body = r.body;
    rp_frame = frame;
  }

let plan_block (u : Program.update) : D.block_plan =
  List.map plan_rule u.rules

let plan_program ?(fallback = `Tuple) (p : Program.t) : D.program_plan =
  let pick kind =
    List.filter_map
      (fun (k, name, u) -> if k = kind then Some (name, plan_block u) else None)
      (Program.updates p)
  in
  {
    D.pp_ins = pick `Ins;
    pp_del = pick `Del;
    pp_set = pick `Set;
    pp_fallback = fallback;
  }

(* Memoized by physical identity of the program (names are not unique:
   the optimizer emits same-named variants), keyed also on the fallback.
   One plan record per key matters: the delta backend keys its frontier
   state on the plan's physical identity. *)
let plan_memo =
  Mc.memo
    (fun (p, fb) (q, fb') -> p == q && fb = fb')
    (fun (p, fallback) -> plan_program ~fallback p)

let plan ?(fallback = `Tuple) (p : Program.t) = plan_memo (p, fallback)

(* --- classification and reporting ----------------------------------------- *)

type sup_class = Bounded | Guarded | Unbounded

let classify = function
  | D.Top -> Unbounded
  | D.Slabs l ->
      if List.for_all slab_bounded l then Bounded
      else if List.for_all (fun s -> slab_bounded s || slab_guarded s) l then
        Guarded
      else Unbounded

let class_string = function
  | Bounded -> "bounded"
  | Guarded -> "guarded"
  | Unbounded -> "unbounded"

let sup_anchors = function
  | D.Top -> []
  | D.Slabs l ->
      List.filter_map
        (fun s -> Option.map (fun a -> a.D.a_rel) s.D.s_anchor)
        l

type rule_report = {
  rr_path : string;
  rr_target : string;
  rr_framed : bool;
  rr_out : sup_class;  (** [Unbounded] when unframed *)
  rr_in : sup_class;
  rr_chained : string list;
      (** relations whose members seed (anchor) the frontier; split by
          {!report} into temps — delta chaining along the dataflow
          graph — and persistent relations *)
}

type report = {
  sr_program : string;
  sr_rules : rule_report list;
  sr_eligible : bool;
      (** every rule framed with bounded or guarded supports on both
          sides: the delta backend can shrink every step that the
          runtime guards allow *)
  sr_temp_chains : (string * string) list;
      (** (rule path, temp name): frontiers chained through a temporary,
          validated against the {!Dataflow} reads *)
}

let report (p : Program.t) : report =
  let flow = Dataflow.of_program p in
  let rules =
    List.concat_map
      (fun (kind, name, (u : Program.update)) ->
        let block =
          Printf.sprintf "on_%s %s" (Program.kind_string kind) name
        in
        List.map
          (fun (r : Program.rule) ->
            let rp = plan_rule r in
            let framed = rp.D.rp_frame <> None in
            let out_c, in_c, chained =
              match rp.D.rp_frame with
              | None -> (Unbounded, Unbounded, [])
              | Some { D.f_out; f_in } ->
                  ( classify f_out,
                    classify f_in,
                    List.sort_uniq String.compare
                      (sup_anchors f_out @ sup_anchors f_in) )
            in
            {
              rr_path = Printf.sprintf "%s / rule %s" block r.target;
              rr_target = r.target;
              rr_framed = framed;
              rr_out = out_c;
              rr_in = in_c;
              rr_chained = chained;
            })
          u.rules)
      (Program.updates p)
  in
  let temp_names =
    List.sort_uniq String.compare
      (List.concat_map
         (fun (n : Dataflow.rule_node) -> if n.is_temp then [ n.target ] else [])
         flow.nodes)
  in
  let temp_chains =
    List.concat_map
      (fun rr ->
        List.filter_map
          (fun a ->
            if List.mem a temp_names then Some (rr.rr_path, a) else None)
          rr.rr_chained)
      rules
  in
  let eligible =
    rules <> []
    && List.for_all
         (fun rr ->
           rr.rr_framed && rr.rr_out <> Unbounded && rr.rr_in <> Unbounded)
         rules
  in
  {
    sr_program = p.name;
    sr_rules = rules;
    sr_eligible = eligible;
    sr_temp_chains = temp_chains;
  }

let eligible p = (report p).sr_eligible

let install ?(fallback_of = fun _ -> `Tuple) () =
  Runner.set_delta_planner (fun p -> plan ~fallback:(fallback_of p) p)

let pp_rule ppf rr =
  Format.fprintf ppf "%-32s %s" rr.rr_path
    (if not rr.rr_framed then "no frame: full recompute"
     else
       Printf.sprintf "frame out=%s in=%s%s" (class_string rr.rr_out)
         (class_string rr.rr_in)
         (match rr.rr_chained with
         | [] -> ""
         | l -> Printf.sprintf " (chained via %s)" (String.concat ", " l)))

let pp ppf r =
  Format.fprintf ppf "%s: %s@\n" r.sr_program
    (if r.sr_eligible then "delta-eligible"
     else "not delta-eligible (some rule unframed or unbounded)");
  List.iter (fun rr -> Format.fprintf ppf "  %a@\n" pp_rule rr) r.sr_rules
