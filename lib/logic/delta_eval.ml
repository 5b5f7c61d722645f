(* Incremental (delta) evaluation of update rules.

   A rule [R(x̄) <- B] whose body admits a *frame decomposition*

       B  ≡  (R(x̄) ∧ A) ∨ C

   (the target atom, applied to the rule's own tuple variables in order,
   as a conjunct of one disjunct) satisfies a per-step identity that
   needs no assumptions about the request or the program's history:

   - for x̄ ∈ R   : new value = A ∨ C — the tuple *leaves* iff ¬(A ∨ C);
   - for x̄ ∉ R   : new value = C     — the tuple *enters* iff C.

   So any upper bound ("support") of ¬(A ∨ C) over the current members,
   together with an upper bound of C over the non-members, is a sound
   dirty frontier: tuples outside it keep their old value. The static
   analysis (Dynfo_analysis.Support) computes those bounds as [sup]
   values; this module materialises them as a Bitrel dirty mask,
   re-evaluates the *full* body only on the frontier with a compiled
   tester, and splices the flips into the persistent old relation. When the
   frontier exceeds [cutoff () * tuple-space] the rule falls back to a
   full recompute on the plan's fallback backend.

   Wall-clock: the frontier of a framed rule is tiny by construction, so
   the per-step *fixed* costs dominate. They are eliminated by keeping
   persistent per-rule state across steps in the caller's [cache] (see
   [state] below):
   the body tester and every slab guard stay compiled (rebound per
   step), anchor-relation contributions are patched from the previous
   step's Relation.symmetric_diff instead of re-enumerated, the Bitrel
   dirty mask is a persistent buffer cleared word-by-word via a
   dirty-word list instead of reallocated, and frontiers below
   [small_limit] skip the mask entirely (explicit code list). All of it
   is sound by construction — a frontier only ever needs to *contain*
   the flipping tuples, and every frontier tuple is re-tested with the
   full body — and the stateless [frontier] builder is kept as the
   reference the qcheck equivalence law compares against. *)

open Dynfo_engine

type pin = { coord : int; value : Formula.term }

type anchor = {
  a_rel : string;
  a_coords : (int * int) list; (* (member position, target coordinate) *)
  a_checks : (int * Formula.term) list; (* member position = closed term *)
}

type slab = {
  s_guards : Formula.t list; (* closed: no free tuple variables *)
  s_pins : pin list;
  s_anchor : anchor option;
}

type sup = Top | Slabs of slab list

type frame = { f_out : sup; f_in : sup }

type rule_plan = {
  rp_target : string;
  rp_vars : string list;
  rp_body : Formula.t;
  rp_frame : frame option; (* [None]: always recompute in full *)
}

type block_plan = rule_plan list

type program_plan = {
  pp_ins : (string * block_plan) list;
  pp_del : (string * block_plan) list;
  pp_set : (string * block_plan) list;
  pp_fallback : [ `Tuple | `Bulk ];
}

let conservative_plan =
  { pp_ins = []; pp_del = []; pp_set = []; pp_fallback = `Tuple }

let block_for plan (kind : [ `Ins | `Del | `Set ]) name =
  let blocks =
    match kind with
    | `Ins -> plan.pp_ins
    | `Del -> plan.pp_del
    | `Set -> plan.pp_set
  in
  List.assoc_opt name blocks

let rule_plan_for (bp : block_plan) target =
  List.find_opt (fun rp -> rp.rp_target = target) bp

(* --- cutoff --------------------------------------------------------------- *)

let default_cutoff = 0.25

let cutoff_fraction = ref default_cutoff

let set_cutoff f =
  if not (f >= 0. && f <= 1.) then
    invalid_arg "Delta_eval.set_cutoff: fraction outside [0, 1]";
  cutoff_fraction := f

let cutoff () = !cutoff_fraction

(* Largest raw frontier (in tuples, before dedupe) resolved as an
   explicit code list with no Bitrel at all. Calibrated by E25: below a
   few dozen tuples, enumerating codes beats even a persistent mask's
   clear/fill/popcount bookkeeping. *)
let small_limit = 32

(* --- frontier construction ------------------------------------------------ *)

exception Over_budget

(* [size^arity] or [None] when it overflows (then the mask cannot be
   allocated and the rule recomputes in full, like the bulk backend
   refusing the space) *)
let space_opt ~size ~arity =
  let rec go acc i =
    if i = 0 then Some acc
    else if acc > max_int / size then None
    else go (acc * size) (i - 1)
  in
  go 1 arity

let ipow n k =
  let rec go acc i = if i = 0 then acc else go (acc * n) (i - 1) in
  go 1 k

(* Runtime value of a pin/check/guard term: update parameters from [env],
   then structure constants — the same resolution order as Eval (tuple
   variables never appear: the planner only emits closed terms). *)
let term_value st env (t : Formula.term) =
  match t with
  | Formula.Var x -> (
      match List.assoc_opt x env with
      | Some v -> v
      | None -> (
          match Structure.const st x with
          | v -> v
          | exception Invalid_argument _ -> raise (Eval.Unbound_variable x)))
  | Formula.Num i -> i
  | Formula.Min -> 0
  | Formula.Max -> Structure.size st - 1

(* Extend a concrete pin assignment; [None] when inconsistent (two pins
   on one coordinate disagree) or a value falls outside the universe
   (the slab is empty at this step). *)
let add_pin ~size acc coord v =
  if v < 0 || v >= size then None
  else
    match List.assoc_opt coord acc with
    | Some v' -> if v = v' then Some acc else None
    | None -> Some ((coord, v) :: acc)

let resolve_pins st env ~size pins =
  List.fold_left
    (fun acc { coord; value } ->
      match acc with
      | None -> None
      | Some acc -> add_pin ~size acc coord (term_value st env value))
    (Some []) pins

let charge work k = work := !work + k

(* Emit the concrete coordinate assignments of one slab, spending frontier
   budget as it goes ([Over_budget] aborts the whole mask). Guards are
   evaluated first: a false guard makes the slab empty for this step. *)
let resolve_slab ~work st env ~size ~arity ~spend emit slab =
  if List.for_all (fun g -> Eval.holds ~work st ~env g) slab.s_guards then
    match resolve_pins st env ~size slab.s_pins with
    | None -> ()
    | Some pins -> (
        match slab.s_anchor with
        | None ->
            spend (ipow size (arity - List.length pins));
            emit pins
        | Some a ->
            let r =
              match Structure.rel st a.a_rel with
              | r -> r
              | exception Invalid_argument _ ->
                  (* anchor relation not in this structure (planner bug or
                     a temp that is not declared yet): recomputing in full
                     is always sound *)
                  raise Over_budget
            in
            let checks =
              List.map (fun (j, t) -> (j, term_value st env t)) a.a_checks
            in
            charge work (Relation.cardinal r);
            Relation.iter
              (fun q ->
                if List.for_all (fun (j, v) -> q.(j) = v) checks then
                  let member_pins =
                    List.fold_left
                      (fun acc (j, coord) ->
                        match acc with
                        | None -> None
                        | Some acc -> add_pin ~size acc coord q.(j))
                      (Some pins) a.a_coords
                  in
                  match member_pins with
                  | None -> ()
                  | Some pins ->
                      spend (ipow size (arity - List.length pins));
                      emit pins)
              r)

type frontier =
  [ `Full
  | `Mask of Bitrel.t
  | `Mask_words of Bitrel.t * int list
  | `Tuples of Tuple.t list ]

(* --- the mask-free fast path ---------------------------------------------- *)

(* A sup whose slabs are all anchorless and fully pinned (one pin per
   target coordinate) can dirty at most one concrete tuple per slab —
   the single-tuple-frontier shape of plain ins/del maintenance rules
   and of 0-ary (boolean) targets. For those the Bitrel mask is pure
   overhead: the word clears/fills/popcounts cost O(space/63) per step
   while the frontier is O(1). Resolve the pins directly instead. *)
let fully_pinned ~arity = function
  | Top -> false
  | Slabs slabs ->
      List.for_all
        (fun s -> s.s_anchor = None && List.length s.s_pins = arity)
        slabs

(* The one tuple a fully pinned slab can dirty this step, if its guards
   hold and its pins resolve consistently inside the universe. *)
let slab_tuple ~work st env ~size slab =
  if List.for_all (fun g -> Eval.holds ~work st ~env g) slab.s_guards then
    match resolve_pins st env ~size slab.s_pins with
    | None -> None
    | Some pins ->
        (* pins have distinct coordinates in [0, arity) and cover all of
           them, so the assoc lookups are total *)
        Some (Array.init (List.length pins) (fun i -> List.assoc i pins))
  else None

let fast_hits_c = Atomic.make 0
let fast_hits () = Atomic.get fast_hits_c
let mask_builds_c = Atomic.make 0
let mask_builds () = Atomic.get mask_builds_c
let mask_reuse_hits_c = Atomic.make 0
let mask_reuse_hits () = Atomic.get mask_reuse_hits_c
let words_cleared_c = Atomic.make 0
let words_cleared () = Atomic.get words_cleared_c
let small_frontier_hits_c = Atomic.make 0
let small_frontier_hits () = Atomic.get small_frontier_hits_c

(* Build the dirty mask for a framed rule, or decide [`Full] — or, when
   both sides are fully pinned, resolve the frontier to its concrete
   tuples with no mask at all ([`Tuples]).
   [base] is the target's pre-state value. A [Top] side is bounded by the
   relation itself: frontier-out ⊆ members, frontier-in ⊆ complement. *)
let frontier ?(work = ref 0) st ~env ~base (plan : rule_plan) : frontier =
  match plan.rp_frame with
  | None -> `Full
  | Some { f_out; f_in } -> (
      let size = Structure.size st in
      let arity = List.length plan.rp_vars in
      match space_opt ~size ~arity with
      | None -> `Full
      | Some space -> (
          let budget =
            int_of_float (!cutoff_fraction *. float_of_int space)
          in
          if fully_pinned ~arity f_out && fully_pinned ~arity f_in then begin
            let slabs_of = function Top -> [] | Slabs s -> s in
            let tups =
              List.fold_left
                (fun acc slab ->
                  match slab_tuple ~work st env ~size slab with
                  | Some t
                    when not
                           (List.exists (fun u -> Tuple.compare u t = 0) acc)
                    ->
                      t :: acc
                  | _ -> acc)
                []
                (slabs_of f_in @ slabs_of f_out)
            in
            (* same budget discipline as the mask path: --delta-cutoff 0
               still forces a full recompute *)
            if List.length tups >= budget then `Full
            else begin
              Atomic.incr fast_hits_c;
              `Tuples (List.rev tups)
            end
          end
          else
          let card = Relation.cardinal base in
          let est_out = match f_out with Top -> card | Slabs _ -> 0 in
          let est_in = match f_in with Top -> space - card | Slabs _ -> 0 in
          try
            if est_out + est_in >= budget then raise Over_budget;
            let spent = ref (est_out + est_in) in
            let spend k =
              spent := !spent + k;
              if !spent >= budget then raise Over_budget
            in
            Atomic.incr mask_builds_c;
            let mask = Bitrel.create ~size ~arity in
            let install pins = charge work (Bitrel.set_slab mask pins) in
            (* the in-side first: its [Top] case fills the complement of
               [base] by clearing member bits, which must not erase
               out-side installs *)
            (match f_in with
             | Top ->
                 Bitrel.fill_range mask ~lo:0 ~hi:space;
                 Relation.iter (fun q -> Bitrel.remove mask q) base;
                 charge work (Bitrel.word_count mask + card)
             | Slabs slabs ->
                 List.iter
                   (resolve_slab ~work st env ~size ~arity ~spend install)
                   slabs);
            (match f_out with
             | Top ->
                 Relation.iter (fun q -> Bitrel.add mask q) base;
                 charge work card
             | Slabs slabs ->
                 List.iter
                   (resolve_slab ~work st env ~size ~arity ~spend install)
                   slabs);
            charge work (Bitrel.word_count mask);
            if Bitrel.popcount mask >= budget then `Full else `Mask mask
          with Over_budget -> `Full))

(* --- persistent per-rule frontier state ----------------------------------- *)

(* Everything whose construction used to be a fixed per-step cost lives
   in a [state] record cached across steps, one per physical plan record
   (plans are memoized per program by the analysis planner) in the
   caller's [cache] — a runner's, so the state only ever sees that
   runner's history. Reuse is sound by construction: testers are
   rebound (or recompiled on env-name mismatch), anchor caches are
   validated against the current relation value and resolved check/pin
   values, and the scratch mask is zero outside its dirty-word list.
   The cache's lock is held for the whole evaluation of a rule —
   compiled testers own mutable slot arrays and the mask is a shared
   scratch buffer, and states forked from one runner may be stepped
   from several systhreads that interleave at any allocation point. *)

type anchor_cache = {
  mutable ac_rel : Relation.t;  (* anchor value at last sync *)
  mutable ac_checks : (int * int) list;  (* resolved checks at last sync *)
  mutable ac_pins : (int * int) list;  (* resolved base pins at last sync *)
  ac_members : (Tuple.t, (int * int) list option) Hashtbl.t;
      (* member -> its full pin assignment ([None]: fails a check, or
         its pins clash with the base pins) *)
}

type slab_state = {
  ss_slab : slab;
  ss_guards : Eval.compiled option array;  (* compiled lazily, one per guard *)
  mutable ss_anchor : anchor_cache option;
}

(* A batch scope: requests evaluated under the same token accumulate one
   shared dirty mask per rule state instead of clearing and rebuilding it
   per member. Tokens are compared by physical identity and never reused,
   so a stale token left on a state can only ever match its own (dead)
   batch — no coordination is needed beyond the cache's lock. *)
type batch = unit ref

let new_batch () : batch = ref ()

type state = {
  s_plan : rule_plan;
  s_size : int;
  mutable s_tester : Eval.compiled;
  s_in : slab_state array;  (* [||] when the side is Top *)
  s_out : slab_state array;
  s_slabs_only : bool;  (* both sides are [Slabs]: stateful path applies *)
  s_legacy_fast : bool;  (* both sides fully pinned and anchorless *)
  mutable s_mask : Bitrel.t option;  (* zero outside [s_dirty] *)
  mutable s_dirty : int list;  (* exactly the mask's non-zero words *)
  mutable s_batch : batch option;  (* scope of the words in [s_dirty] *)
}

type cache = { c_lock : Mutex.t; mutable c_states : state list }

let new_cache () = { c_lock = Mutex.create (); c_states = [] }
let memo_hits_c = Atomic.make 0
let memo_misses_c = Atomic.make 0
let memo_hits () = Atomic.get memo_hits_c
let memo_misses () = Atomic.get memo_misses_c

let slab_states = function
  | Top -> [||]
  | Slabs slabs ->
      Array.of_list
        (List.map
           (fun s ->
             {
               ss_slab = s;
               ss_guards = Array.make (List.length s.s_guards) None;
               ss_anchor = None;
             })
           slabs)

(* must be called with [cache.c_lock] held *)
let find_state cache st ~env (plan : rule_plan) =
  let size = Structure.size st in
  match
    List.find_opt (fun s -> s.s_plan == plan && s.s_size = size) cache.c_states
  with
  | Some s -> (
      match Eval.rebind s.s_tester st ~env with
      | () ->
          Atomic.incr memo_hits_c;
          s
      | exception Invalid_argument _ ->
          (* the same plan record reused under different parameter names
             (hand-built plans): recompile the body tester in place —
             guards catch up the same way on their own rebinds. A
             genuine missing symbol re-raises out of [rebind] above,
             exactly as a fresh compilation would. *)
          Atomic.incr memo_misses_c;
          s.s_tester <-
            Eval.compile_tester st ~vars:plan.rp_vars ~env plan.rp_body;
          s)
  | None ->
      Atomic.incr memo_misses_c;
      let tester =
        Eval.compile_tester st ~vars:plan.rp_vars ~env plan.rp_body
      in
      let arity = List.length plan.rp_vars in
      let f_in, f_out =
        match plan.rp_frame with
        | None -> (Slabs [], Slabs [])
        | Some { f_out; f_in } -> (f_in, f_out)
      in
      let s =
        {
          s_plan = plan;
          s_size = size;
          s_tester = tester;
          s_in = slab_states f_in;
          s_out = slab_states f_out;
          s_slabs_only = (f_in <> Top && f_out <> Top);
          s_legacy_fast = fully_pinned ~arity f_out && fully_pinned ~arity f_in;
          s_mask = None;
          s_dirty = [];
          s_batch = None;
        }
      in
      (* one entry per plan: a state of another universe size is dropped *)
      cache.c_states <-
        s :: List.filter (fun s' -> s'.s_plan != plan) cache.c_states;
      s

(* Evaluate one guard through its cached compiled tester (guards are
   closed, so the tester has no tuple variables): rebind per step,
   recompile on env-name mismatch — same error surface as Eval.holds. *)
let guards_hold ~work st ~env (ss : slab_state) =
  let rec go i = function
    | [] -> true
    | g :: rest ->
        let holds =
          let recompile () =
            let c = Eval.compile_tester st ~vars:[] ~env g in
            ss.ss_guards.(i) <- Some c;
            Eval.test_compiled ~work c [||]
          in
          match ss.ss_guards.(i) with
          | None -> recompile ()
          | Some c -> (
              match Eval.rebind c st ~env with
              | () -> Eval.test_compiled ~work c [||]
              | exception Invalid_argument _ -> recompile ())
        in
        holds && go (i + 1) rest
  in
  go 0 ss.ss_slab.s_guards

let anchor_member_value ~size (a : anchor) ~checks ~pins q =
  if List.for_all (fun (j, v) -> q.(j) = v) checks then
    List.fold_left
      (fun acc (j, coord) ->
        match acc with
        | None -> None
        | Some acc -> add_pin ~size acc coord q.(j))
      (Some pins) a.a_coords
  else None

(* Bring the slab's anchor cache in sync with the current value of the
   anchor relation. Relations are persistent, so physical equality means
   nothing changed; otherwise the cache is patched from the symmetric
   difference — O(churn), not O(members). Changed check or pin values
   invalidate every stored contribution, so those rebuild.

   No work is charged for the sync itself: work must stay a
   deterministic function of the pre-state and the request (the
   snapshot-lockstep law compares per-step work between a restored
   runner and the uninterrupted one, and both may hit or miss this
   cache independently). The deterministic per-use charge lives in
   [resolve_slab_state]. *)
let sync_anchor st env ~size (ss : slab_state) (a : anchor) ~pins =
  let r =
    match Structure.rel st a.a_rel with
    | r -> r
    | exception Invalid_argument _ ->
        (* anchor relation not in this structure (planner bug or a temp
           that is not declared yet): recomputing in full is always
           sound *)
        raise Over_budget
  in
  let checks = List.map (fun (j, t) -> (j, term_value st env t)) a.a_checks in
  match ss.ss_anchor with
  | Some c when c.ac_checks = checks && c.ac_pins = pins ->
      if not (c.ac_rel == r) then begin
        let d = Relation.symmetric_diff c.ac_rel r in
        Relation.iter
          (fun q ->
            if Relation.mem_unchecked r q then
              Hashtbl.replace c.ac_members q
                (anchor_member_value ~size a ~checks ~pins q)
            else Hashtbl.remove c.ac_members q)
          d;
        c.ac_rel <- r
      end;
      c
  | _ ->
      let tbl = Hashtbl.create ((2 * Relation.cardinal r) + 1) in
      Relation.iter
        (fun q ->
          Hashtbl.replace tbl q (anchor_member_value ~size a ~checks ~pins q))
        r;
      let c = { ac_rel = r; ac_checks = checks; ac_pins = pins; ac_members = tbl } in
      ss.ss_anchor <- Some c;
      c

(* Stateful counterpart of [resolve_slab]: same emissions, same budget
   spending (so the budget decisions match the stateless reference
   exactly), through the cached guard testers and anchor table. *)
let resolve_slab_state ~work st env ~size ~arity ~spend emit
    (ss : slab_state) =
  if guards_hold ~work st ~env ss then
    match resolve_pins st env ~size ss.ss_slab.s_pins with
    | None -> ()
    | Some pins -> (
        match ss.ss_slab.s_anchor with
        | None ->
            spend (ipow size (arity - List.length pins));
            emit pins
        | Some a ->
            let c = sync_anchor st env ~size ss a ~pins in
            charge work (Hashtbl.length c.ac_members);
            Hashtbl.iter
              (fun _ mp ->
                match mp with
                | None -> ()
                | Some pins ->
                    spend (ipow size (arity - List.length pins));
                    emit pins)
              c.ac_members)

(* The one tuple a fully pinned slab can dirty this step, through the
   cached guard testers — the stateful [slab_tuple]. *)
let slab_tuple_state ~work st env ~size (ss : slab_state) =
  if guards_hold ~work st ~env ss then
    match resolve_pins st env ~size ss.ss_slab.s_pins with
    | None -> None
    | Some pins ->
        Some (Array.init (List.length pins) (fun i -> List.assoc i pins))
  else None

(* All codes of the cylinder over a partial pin assignment. *)
let emit_cylinder ~size ~arity pins f =
  let fixed = Array.make (max 1 arity) (-1) in
  List.iter (fun (c, v) -> fixed.(c) <- v) pins;
  let rec go i code =
    if i = arity then f code
    else if fixed.(i) >= 0 then go (i + 1) ((code * size) + fixed.(i))
    else
      for v = 0 to size - 1 do
        go (i + 1) ((code * size) + v)
      done
  in
  go 0 0

(* The stateful frontier: identical emissions and budget decisions to
   the stateless [frontier] (the qcheck equivalence law holds them to
   each other), with the fixed costs amortised across steps. *)
let frontier_state ~work (s : state) ?batch st ~env ~base : frontier =
  match s.s_plan.rp_frame with
  | None -> `Full
  | Some _ -> (
      let size = s.s_size in
      let arity = List.length s.s_plan.rp_vars in
      match space_opt ~size ~arity with
      | None -> `Full
      | Some space ->
          let budget = int_of_float (!cutoff_fraction *. float_of_int space) in
          if s.s_legacy_fast then begin
            let tups =
              Array.fold_left
                (fun acc ss ->
                  match slab_tuple_state ~work st env ~size ss with
                  | Some t
                    when not (List.exists (fun u -> Tuple.compare u t = 0) acc)
                    ->
                      t :: acc
                  | _ -> acc)
                []
                (Array.append s.s_in s.s_out)
            in
            if List.length tups >= budget then `Full
            else begin
              Atomic.incr fast_hits_c;
              Atomic.incr small_frontier_hits_c;
              `Tuples (List.rev tups)
            end
          end
          else if not s.s_slabs_only then
            (* a [Top] side is bounded by the member set or its
               complement: the whole space is touched, so there is
               nothing for persistent buffers to amortise — build fresh
               exactly like the stateless reference *)
            frontier ~work st ~env ~base s.s_plan
          else begin
            try
              let spent = ref 0 in
              let spend k =
                spent := !spent + k;
                if !spent >= budget then raise Over_budget
              in
              let emits = ref [] in
              let emit pins = emits := pins :: !emits in
              let resolve =
                resolve_slab_state ~work st env ~size ~arity ~spend emit
              in
              Array.iter resolve s.s_in;
              Array.iter resolve s.s_out;
              if !spent <= small_limit then begin
                (* mask-free small-frontier path: enumerate the codes
                   directly. [!spent] is the raw (pre-dedupe) frontier,
                   so enumeration is bounded by the threshold. *)
                let codes = ref [] in
                List.iter
                  (fun pins ->
                    emit_cylinder ~size ~arity pins (fun c ->
                        codes := c :: !codes))
                  !emits;
                let codes = List.sort_uniq compare !codes in
                charge work (List.length codes);
                (* deduped size vs budget: the same decision the mask
                   path's popcount makes *)
                if List.length codes >= budget then `Full
                else begin
                  Atomic.incr small_frontier_hits_c;
                  `Tuples (List.map (Tuple.decode ~size ~arity) codes)
                end
              end
              else begin
                let mask =
                  match s.s_mask with
                  | Some m ->
                      Atomic.incr mask_reuse_hits_c;
                      m
                  | None ->
                      Atomic.incr mask_builds_c;
                      let m = Bitrel.create ~size ~arity in
                      s.s_mask <- Some m;
                      m
                in
                (* Same batch scope as the previous call on this state?
                   Then keep the accumulated words: the returned frontier
                   is a superset of this member's own (every frontier
                   tuple is re-tested with the full rule body, so
                   sweeping extra words recomputes their correct value —
                   over-approximation is unconditionally sound), and the
                   batch pays one clear instead of one per member. *)
                let joining =
                  match (batch, s.s_batch) with
                  | Some b, Some b' -> b == b'
                  | _ -> false
                in
                s.s_batch <- batch;
                if not joining then begin
                  (* clear only the words touched last step — bookkeeping
                     below the work model's resolution (work must not
                     depend on what the previous step left behind) *)
                  let cleared = List.length s.s_dirty in
                  Bitrel.clear_words mask s.s_dirty;
                  ignore (Atomic.fetch_and_add words_cleared_c cleared);
                  s.s_dirty <- []
                end;
                (* [set_slab] records a word range before filling it, and
                   every recorded word gets a bit: a word is already in
                   [s_dirty] exactly when it is non-zero *)
                let record wlo whi =
                  for w = wlo to whi - 1 do
                    if Bitrel.get_word mask w = 0 then
                      s.s_dirty <- w :: s.s_dirty
                  done
                in
                List.iter
                  (fun pins -> charge work (Bitrel.set_slab ~record mask pins))
                  !emits;
                charge work (List.length s.s_dirty);
                if Bitrel.popcount_words mask s.s_dirty >= budget then `Full
                else `Mask_words (mask, s.s_dirty)
              end
            with Over_budget -> `Full
          end)

(* --- evaluation ----------------------------------------------------------- *)

(* Run [f] on the rule's state and frontier under the cache's lock: the
   compiled testers own mutable slot arrays and a [`Mask_words] frontier
   borrows the state's scratch mask, so both stay valid for exactly as
   long as the lock is held ([f] must not re-enter this module). The
   body's tester is bound before guards or the mask are touched, so the
   delta path surfaces the same compile-time errors (unknown relations,
   arity mismatches, unbound variables) as a full evaluation, even when
   the frontier turns out to be empty. *)
let with_state ~cache ~work st ~env ?batch (plan : rule_plan) f =
  Mutex.protect cache.c_lock (fun () ->
      let s = find_state cache st ~env plan in
      let base = Structure.rel st plan.rp_target in
      f s ~base (frontier_state ~work s ?batch st ~env ~base))

let with_frontier ~cache st ?(env = []) plan f =
  with_state ~cache ~work:(ref 0) st ~env plan (fun _ ~base:_ fr -> f fr)

(* Re-test the frontier with the full body and splice the flips into the
   (persistent) old value [base]: one kernel over frontier words — the
   mask's whole word range for [`Mask], the dirty-word list for
   [`Mask_words] — run by [Pool.parallel_for]. Every lane counts its
   re-tests into a counter of its own. Lane 0 re-tests with the state's
   cached tester and splices its flips straight into the result, which
   on a one-lane pool is the whole splice; every other lane compiles its
   own tester on first use (a tester owns a slot array) and collects its
   flips. After the job returns, the other lanes' flips are spliced in
   and every lane's counter is added into [work]. Distinct words
   partition the frontier, so the flips are disjoint and the result and
   its work are the same on any pool. A frontier below [cutoff] tuples,
   and the [`Tuples] fast path (a handful of tuples at most), never fan
   out. *)
let splice ~work ~pool ~cutoff st ~env (s : state) ~base
    (fr :
      [ `Mask of Bitrel.t
      | `Mask_words of Bitrel.t * int list
      | `Tuples of Tuple.t list ]) =
  let pool =
    if
      Pool.lanes pool = 1
      ||
      match fr with
      | `Mask m -> Bitrel.popcount m < cutoff
      | `Mask_words (m, ws) -> Bitrel.popcount_words m ws < cutoff
      | `Tuples _ -> true
    then Pool.inline
    else pool
  in
  let out = ref base in
  let flips = Array.make (Pool.lanes pool) [] in
  let testers = Array.make (Pool.lanes pool) None in
  let counters = Array.init (Pool.lanes pool) (fun _ -> ref 0) in
  (* one lane's re-test, resolved once per chunk *)
  let lane_retest lane =
    let work = counters.(lane) in
    let test, flip =
      if lane = 0 then
        ( Eval.test_compiled ~work s.s_tester,
          fun tup now ->
            out :=
              if now then Relation.add !out tup else Relation.remove !out tup )
      else
        let test =
          match testers.(lane) with
          | Some t -> t
          | None ->
              let t =
                Eval.test_compiled ~work
                  (Eval.compile_tester st ~vars:s.s_plan.rp_vars ~env
                     s.s_plan.rp_body)
              in
              testers.(lane) <- Some t;
              t
        in
        (test, fun tup now -> flips.(lane) <- (tup, now) :: flips.(lane))
    in
    fun tup ->
      let now = test tup in
      if now <> Relation.mem_unchecked base tup then flip tup now
  in
  let retest_words retest mask ~word_lo ~word_hi =
    let size = Bitrel.size mask and arity = Bitrel.arity mask in
    Bitrel.iter_codes_between
      (fun code -> retest (Tuple.decode ~size ~arity code))
      mask ~word_lo ~word_hi
  in
  (match fr with
  | `Tuples tups -> List.iter (lane_retest 0) tups
  | `Mask mask ->
      Bitrel.parallel_words pool ~lo:0 ~hi:(Bitrel.word_count mask)
        (fun ~lane word_lo word_hi ->
          retest_words (lane_retest lane) mask ~word_lo ~word_hi)
  | `Mask_words (mask, words) ->
      let words = Array.of_list words in
      Pool.parallel_for pool ~lo:0 ~hi:(Array.length words) (fun ~lane l r ->
          let retest = lane_retest lane in
          for i = l to r - 1 do
            retest_words retest mask ~word_lo:words.(i)
              ~word_hi:(words.(i) + 1)
          done));
  Array.iter (fun c -> charge work !c) counters;
  Array.fold_left
    (List.fold_left (fun rel (tup, now) ->
         if now then Relation.add rel tup else Relation.remove rel tup))
    !out flips

let define ?(work = ref 0) ~cache ?(fallback = `Tuple) ?(pool = Pool.inline)
    ?(cutoff = Pool.default_cutoff) st ?(env = []) ?batch (plan : rule_plan) =
  let full () =
    match fallback with
    | `Tuple ->
        Eval.define ~work ~pool ~cutoff st ~vars:plan.rp_vars ~env
          plan.rp_body
    | `Bulk ->
        Bulk_eval.define ~work ~pool ~cutoff st ~vars:plan.rp_vars ~env
          plan.rp_body
  in
  match plan.rp_frame with
  | None -> full ()
  | Some _ ->
      with_state ~cache ~work st ~env ?batch plan (fun s ~base fr ->
          match fr with
          | `Full -> full ()
          | (`Tuples _ | `Mask _ | `Mask_words _) as fr ->
              splice ~work ~pool ~cutoff st ~env s ~base fr)
