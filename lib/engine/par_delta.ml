open Dynfo_logic

(* Parallel delta evaluation of one framed rule: the dirty frontier is
   resolved sequentially against the rule's persistent state
   (guard/pin/anchor resolution is tiny by construction — it is the
   *bound* on the frontier), then the frontier re-tests are chunked
   across the pool by mask-word ranges. Distinct word ranges partition
   the frontier, so lanes share nothing but the read-only pre-state;
   lanes other than 0 compile their own tester (compiled closures
   charge the compiling domain's work counter and own a private slot
   array), lane 0 reuses the state's cached tester. The whole call runs
   inside [Delta_eval.with_state], i.e. under the lock of the runner's
   frontier cache — safe because pool lanes never re-enter Delta_eval,
   and required because the [`Mask_words] buffer is borrowed from that
   cache. Flips are accumulated per lane and merged into the persistent
   base sequentially — the same splice a 1-lane run does.

   Never called with rules fanned across lanes: the runner evaluates
   delta rules in order, parallelism lives inside each rule, because the
   pool is not reentrant. *)

let define pool ~cache ?(cutoff = Par_eval.default_cutoff) ?batch st ~env
    ~(fallback : [ `Tuple | `Bulk ]) (plan : Delta_eval.rule_plan) =
  let full () =
    match fallback with
    | `Tuple -> Par_eval.define pool ~cutoff st ~vars:plan.rp_vars ~env plan.rp_body
    | `Bulk -> Par_bulk.define pool ~cutoff st ~vars:plan.rp_vars ~env plan.rp_body
  in
  match plan.Delta_eval.rp_frame with
  | None -> full ()
  | Some _ ->
      Delta_eval.with_state ~cache st ~env ?batch plan (fun ~test ~base fr ->
          (* fan the frontier words out across lanes; [words] must
             partition the members *)
          let fan_out words =
            let lanes = Pool.lanes pool in
            let flips = Array.make lanes [] in
            let mask, word_ranges =
              match words with
              | `Whole mask -> (mask, `Range (0, Bitrel.word_count mask))
              | `Words (mask, ws) ->
                  (* group the dirty words by page: a lane's unit of
                     work becomes one page's worth of contiguous words,
                     so per-page state (the page-table slot, its cache
                     lines) is only ever read by one lane at a time *)
                  let pw = Bitrel.page_words in
                  let sorted = List.sort_uniq compare ws in
                  let pages =
                    List.fold_left
                      (fun acc w ->
                        match acc with
                        | (p, run) :: rest when w / pw = p ->
                            (p, w :: run) :: rest
                        | _ -> (w / pw, [ w ]) :: acc)
                      [] sorted
                  in
                  ( mask,
                    `List
                      (Array.of_list
                         (List.rev_map
                            (fun (_, run) -> Array.of_list (List.rev run))
                            pages)) )
            in
            let size = Bitrel.size mask in
            let arity = Bitrel.arity mask in
            let visit test acc ~word_lo ~word_hi =
              Bitrel.iter_codes_between
                (fun code ->
                  let tup = Tuple.decode ~size ~arity code in
                  let now = test tup in
                  if now <> Relation.mem_unchecked base tup then
                    acc := (tup, now) :: !acc)
                mask ~word_lo ~word_hi
            in
            let lo, hi, chunk =
              match word_ranges with
              | `Range (lo, hi) ->
                  (* page-aligned chunks, mirroring [Par_bulk.pool_for] *)
                  let pw = Bitrel.page_words in
                  let c = max 1 ((hi - lo) / (max 1 (8 * lanes))) in
                  (lo, hi, Some ((c + pw - 1) / pw * pw))
              | `List pages -> (0, Array.length pages, None)
            in
            Pool.parallel_for pool ?chunk ~lo ~hi (fun ~lane chunk_lo chunk_hi ->
                let test =
                  if lane = 0 then test
                  else Eval.tester st ~vars:plan.rp_vars ~env plan.rp_body
                in
                let acc = ref [] in
                (match word_ranges with
                | `Range _ ->
                    visit test acc ~word_lo:chunk_lo ~word_hi:chunk_hi
                | `List pages ->
                    for i = chunk_lo to chunk_hi - 1 do
                      Array.iter
                        (fun w -> visit test acc ~word_lo:w ~word_hi:(w + 1))
                        pages.(i)
                    done);
                flips.(lane) <- List.rev_append !acc flips.(lane));
            Array.fold_left
              (List.fold_left (fun rel (tup, now) ->
                   if now then Relation.add rel tup
                   else Relation.remove rel tup))
              base flips
          in
          match fr with
          | `Full -> full ()
          | `Tuples tups ->
              (* the mask-free fast path: a handful of concrete tuples at
                 most — never worth fanning out *)
              Delta_eval.splice_tuples ~test ~base tups
          | `Mask mask ->
              if Pool.lanes pool = 1 || Bitrel.popcount mask < cutoff then
                Delta_eval.splice ~test ~base mask
              else fan_out (`Whole mask)
          | `Mask_words (mask, words) ->
              if
                Pool.lanes pool = 1
                || Bitrel.popcount_words mask words < cutoff
              then Delta_eval.splice_words ~test ~base mask words
              else fan_out (`Words (mask, words)))
