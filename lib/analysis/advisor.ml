open Dynfo_logic
open Dynfo

type advice = {
  program : string;
  backend : [ `Tuple | `Bulk | `Delta ];
  fallback : [ `Tuple | `Bulk ];
  par_cutoff : int;
  max_work_exponent : int;
  bit_fraction : float;
  reason : string;
}

let work_threshold = 5
let bit_threshold = 0.05

let atom_counts (p : Program.t) =
  let atoms = ref 0 and bits = ref 0 in
  let count body =
    List.iter
      (fun (f : Formula.t) ->
        match f with
        | Rel _ | Eq _ | Le _ | Lt _ -> incr atoms
        | Bit _ ->
            incr atoms;
            incr bits
        | _ -> ())
      (Formula.subformulas body)
  in
  List.iter
    (fun (_, _, (u : Program.update)) ->
      List.iter (fun (r : Program.rule) -> count r.body) u.temps;
      List.iter (fun (r : Program.rule) -> count r.body) u.rules)
    (Program.updates p);
  count p.query;
  List.iter (fun (_, _, body) -> count body) p.queries;
  (!atoms, !bits)

(* Static per-step estimates for the worst (largest tuple-space) update
   block at a concrete universe size: framed-rule count, frontier upper
   bound in tuples (pinned anchorless slabs are single cells, anchored
   slabs scan at most the universe, partial pins leave the unpinned
   coordinates free) and the full-recompute tuple space. *)
let delta_estimates (p : Program.t) ~size =
  let plan = Support.plan p in
  let open Delta_eval in
  let est_block b =
    List.fold_left
      (fun (rules, frontier, space) (rp : rule_plan) ->
        let arity = List.length rp.rp_vars in
        let sp = Mc.pow size arity in
        let est_sup = function
          | Top -> sp
          | Slabs slabs ->
              List.fold_left
                (fun acc (s : slab) ->
                  acc
                  +
                  match s.s_anchor with
                  | Some _ -> size
                  | None -> Mc.pow size (arity - List.length s.s_pins))
                0 slabs
        in
        match rp.rp_frame with
        | Some f ->
            ( rules + 1,
              frontier + min sp (est_sup f.f_out + est_sup f.f_in),
              space + sp )
        | None -> (rules + 1, frontier + sp, space + sp))
      (0, 0, 0) b
  in
  List.fold_left
    (fun ((_, _, sp) as acc) (_, b) ->
      let (_, _, sp') as est = est_block b in
      if sp' > sp then est else acc)
    (0, 0, 0)
    (plan.pp_ins @ plan.pp_del @ plan.pp_set)

(* --- representation chooser ---------------------------------------------

   Dense vs paged per (relation, n): the decision is the same threshold
   {!Bitrel.auto_repr} applies at allocation time ([auto_words_limit]
   dense words, ~16 MB), evaluated statically over every relation the
   program declares plus the widest rule scope — the scope node is what
   {!Bulk_eval} materializes per formula node, so it is the first
   allocation to break the dense ceiling as [n] grows. Occupancy is a
   runtime observation ({!Bitrel.occupancy}, the page counters surfaced
   by [check] and the daemon's [stats]), not a static input: the static
   chooser is deliberately conservative and only pages what dense could
   not hold comfortably anyway. *)

type repr_choice = {
  rc_name : string;
  rc_arity : int;
  rc_words : int;
  rc_repr : [ `Dense | `Paged ];
}

(* dense word count of the [size]^[arity] space, saturating at
   [max_int] when the space itself overflows (dense allocation would
   raise; only the paged store's implicit-zero pages are even
   addressable there) *)
let words_for ~size ~arity =
  let rec go acc i =
    if i = 0 then Some acc
    else if acc > max_int / size then None
    else go (acc * size) (i - 1)
  in
  match go 1 arity with
  | Some sp -> (sp + Bitrel.bits_per_word - 1) / Bitrel.bits_per_word
  | None -> max_int

let repr_plan (p : Program.t) ~size =
  let m = Metrics.of_program p in
  let rows =
    List.map
      (fun (s : Vocab.sym) -> (s.Vocab.name, s.arity))
      (Vocab.relations (Program.vocab p))
    @ [ ("(scope)", m.Metrics.max_work_exponent) ]
  in
  List.map
    (fun (name, arity) ->
      let words = words_for ~size ~arity in
      let repr =
        if words = max_int then `Paged else Bitrel.auto_repr ~size ~arity
      in
      { rc_name = name; rc_arity = arity; rc_words = words; rc_repr = repr })
    rows

let repr_string = function `Dense -> "dense" | `Paged -> "paged"

let pp_repr_plan ~size ppf plan =
  List.iter
    (fun c ->
      Format.fprintf ppf "  %s/%d at n=%d: %s (%s words)@." c.rc_name
        c.rc_arity size
        (repr_string c.rc_repr)
        (if c.rc_words = max_int then "overflowing"
         else string_of_int c.rc_words))
    plan

let repr_plan_to_json ~size plan =
  Json.(
    Obj
      [
        ("size", Int size);
        ( "relations",
          List
            (List.map
               (fun c ->
                 Obj
                   [
                     ("name", Str c.rc_name);
                     ("arity", Int c.rc_arity);
                     ( "dense_words",
                       if c.rc_words = max_int then Null else Int c.rc_words );
                     ("repr", Str (repr_string c.rc_repr));
                   ])
               plan) );
      ])

let of_program ?size ?(calibration = Calibration.default) (p : Program.t) =
  let m = Metrics.of_program p in
  let atoms, bits = atom_counts p in
  let bit_fraction = if atoms = 0 then 0. else float bits /. float atoms in
  (* the full-recompute choice, from the E20 calibration: also the delta
     backend's fallback for temporaries and over-budget frontiers *)
  let full_backend, full_reason =
    if bit_fraction >= bit_threshold then
      ( `Tuple,
        Printf.sprintf
          "BIT-heavy bodies (%.0f%% of atoms): word-parallel kernels \
           degrade to per-bit probes, short-circuiting tuple evaluation \
           wins"
          (100. *. bit_fraction) )
    else if m.Metrics.max_work_exponent >= work_threshold then
      ( `Bulk,
        Printf.sprintf
          "work n^%d at or above the n^%d dense threshold with BIT-free \
           bodies: set-at-a-time bitset kernels amortize the enumeration"
          m.Metrics.max_work_exponent work_threshold )
    else
      ( `Tuple,
        Printf.sprintf
          "work n^%d below the n^%d dense threshold: per-tuple \
           short-circuit evaluation is cheaper than materializing bitsets"
          m.Metrics.max_work_exponent work_threshold )
  in
  (* E22 calibration: when every rule has a frame with bounded or
     guarded supports, the per-step frontier is small (or emptied by a
     runtime guard) and incremental evaluation strictly undercuts both
     full backends; temporaries and over-budget steps recompute on
     [full_backend], so delta never does asymptotically more work. *)
  let backend, reason =
    if Support.eligible p then begin
      let delta_reason =
        Printf.sprintf
          "every update rule carries a frame with bounded/guarded \
           supports: incremental frontier evaluation, falling back to \
           %s past the --delta-cutoff (%s)"
          (match full_backend with `Tuple -> "tuple" | `Bulk -> "bulk")
          full_reason
      in
      match size with
      | None -> (`Delta, delta_reason)
      | Some n ->
          (* the wall-clock guard (E24 calibration): at a concrete
             universe size, keep the incremental backend only while its
             estimated frontier stays below the µs break-even against a
             full recompute of the worst block *)
          let rules, frontier, space = delta_estimates p ~size:n in
          let threshold =
            Calibration.break_even ~c:calibration ~rules ~space ()
          in
          if float_of_int frontier <= threshold then
            ( `Delta,
              Printf.sprintf
                "%s; frontier ≈ %d tuple(s) at n=%d, under the %.0f-tuple \
                 break-even"
                delta_reason frontier n threshold )
          else
            ( full_backend,
              Printf.sprintf
                "delta-eligible, but at n=%d the estimated frontier (%d \
                 tuples) exceeds the µs break-even (%.0f) against a full \
                 recompute of %d tuples: %s"
                n frontier threshold space full_reason )
    end
    else (full_backend, full_reason)
  in
  {
    program = p.name;
    backend;
    fallback = full_backend;
    par_cutoff = Dynfo_engine.Pool.default_cutoff;
    max_work_exponent = m.Metrics.max_work_exponent;
    bit_fraction;
    reason;
  }

(* [choose] resolves [`Auto] and [fallback_of] feeds the installed
   delta planner — both are on the per-request path (Runner's block
   lookup calls the planner every step), while [of_program] walks the
   whole program through Metrics and Support.report. Memoize the
   default-parameter advice by physical program identity; the
   parameterised [of_program] itself stays uncached (size-dependent
   advice is a per-call question). *)
let of_program_default = Mc.memo ( == ) (fun p -> of_program p)

let choose p = (of_program_default p).backend
let fallback_of p = (of_program_default p).fallback

let install () =
  Runner.set_auto_chooser choose;
  Support.install ~fallback_of ()

let backend_string = function
  | `Tuple -> "tuple"
  | `Bulk -> "bulk"
  | `Delta -> "delta"

let pp ppf a =
  Format.fprintf ppf "%s: --backend %s, parallel cutoff %d — %s" a.program
    (backend_string a.backend) a.par_cutoff a.reason

let to_json ?repr_plan a =
  Json.(
    Obj
      ([
         ("program", Str a.program);
         ("backend", Str (backend_string a.backend));
         ( "fallback",
           Str (backend_string (a.fallback :> [ `Tuple | `Bulk | `Delta ])) );
         ("par_cutoff", Int a.par_cutoff);
         ("max_work_exponent", Int a.max_work_exponent);
         ( "bit_fraction",
           Float (Float.round (a.bit_fraction *. 1000.) /. 1000.) );
         ("reason", Str a.reason);
       ]
      @
      match repr_plan with
      | Some (size, plan) -> [ ("repr_plan", repr_plan_to_json ~size plan) ]
      | None -> []))
