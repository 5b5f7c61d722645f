(* The wall-clock calibration table behind the advisor's
   frontier-size cutoff. Measured by the bench's E24a calibration pass
   (which re-measures, prints this table next to the checked-in one,
   and writes both into BENCH_commute.json — see EXPERIMENTS.md E24):
   delta steps of the same program at two universe sizes give two
   equations in (setup_us, retest_us), a tuple-backend run gives
   full_tuple_us. 1-core reference host. setup_us absorbs every fixed
   per-framed-rule step cost; before the persistent frontier state
   (E25) that meant support resolution, a fresh tester compile and a
   full mask build/zero per step, and the constant sat near 53 µs —
   with state cached across steps (rebound testers, dirty-word mask
   clears, patched anchor tables) what remains is lookup + rebind +
   slab resolution, measured at or below the bench's 0.01 µs
   resolution clamp. Re-run the bench and update these in place when
   the host changes; the advisor only needs the *ratios* to be roughly
   right, and the break-even point moves slowly in them. *)

type t = {
  setup_us : float;
      (** fixed per-framed-rule per-step cost: state lookup, tester
          rebind, support resolution and frontier bookkeeping (the
          amortised remains of the pre-E25 per-step mask build) *)
  retest_us : float;  (** per frontier-tuple full-body re-test *)
  full_tuple_us : float;
      (** per tuple-space-tuple cost of a full recompute on the
          fallback backend *)
}

let default = { setup_us = 0.01; retest_us = 0.37; full_tuple_us = 2.923 }

let break_even ?(c = default) ~rules ~space () =
  (* the largest per-step frontier (in tuples) at which an incremental
     step still undercuts recomputing the block in full: solve
     [rules·setup + frontier·retest = space·full] for [frontier].
     Negative when the tuple space is so small that the fixed setup
     overhead alone exceeds the full recompute — keep the full backend
     no matter the frontier. *)
  ((c.full_tuple_us *. float_of_int space)
  -. (c.setup_us *. float_of_int rules))
  /. c.retest_us

let to_json c =
  Dynfo.Json.(
    Obj
      [
        ("setup_us", Float c.setup_us);
        ("retest_us", Float c.retest_us);
        ("full_tuple_us", Float c.full_tuple_us);
      ])
