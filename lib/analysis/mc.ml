open Dynfo_logic
open Dynfo

(* The one bounded model checker: Commute's and Defchange's laws and
   Rewrite's equivalences all run through [synthetic] (and, for laws
   about a program, [verify_law]'s reachable-state fallback). *)

let pow b e =
  let r = ref 1 in
  for _ = 1 to e do
    r := !r * b
  done;
  !r

let decode_tuple ~size ~arity idx =
  let t = Array.make arity 0 in
  let rest = ref idx in
  for i = 0 to arity - 1 do
    t.(i) <- !rest mod size;
    rest := !rest / size
  done;
  t

type result = {
  mc_checks : int;
  mc_exhaustive_upto : int;
  mc_cex : (int * int list list) option;
}

(* the cartesian product of the argument-tuple spaces, in index order *)
let all_args size arities =
  List.fold_left
    (fun acc arity ->
      List.concat_map
        (fun prefix ->
          List.init (pow size arity) (fun i ->
              prefix @ [ Array.to_list (decode_tuple ~size ~arity i) ]))
        acc)
    [ [] ] arities

let random_args rng size arities =
  List.map
    (fun arity -> List.init arity (fun _ -> Random.State.int rng size))
    arities

(* One run's counters: [test] counts an admissible combination and keeps
   the first failure; every later combination is skipped. *)
let tester ~pre ~check =
  let checks = ref 0 and cex = ref None in
  let test size st argss =
    if !cex = None && pre st argss then begin
      incr checks;
      if not (check st argss) then cex := Some (size, argss)
    end
  in
  (test, checks, cex)

let always _ _ = true

let synthetic ~seed ~draws ?(pre = always) ~max_size ~budget ~samples
    ~arities ~check vocab =
  let rels =
    List.map (fun (s : Vocab.sym) -> (s.name, s.arity)) (Vocab.relations vocab)
  in
  let consts = Vocab.constants vocab in
  let nconsts = List.length consts in
  let test, checks, cex = tester ~pre ~check in
  let exhaustive_upto = ref 0 in
  for size = 1 to max_size do
    if !cex = None then begin
      let bits = List.fold_left (fun acc (_, a) -> acc + pow size a) 0 rels in
      let const_combos = pow size nconsts in
      let combos = const_combos * pow size (List.fold_left ( + ) 0 arities) in
      (* [2^bits · combos <= budget], without overflowing *)
      if bits < Sys.int_size - 1 && 1 lsl bits <= budget / combos then begin
        let args = all_args size arities in
        for pattern = 0 to (1 lsl bits) - 1 do
          if !cex = None then begin
            let base = ref (Structure.create ~size vocab) in
            let bit = ref 0 in
            List.iter
              (fun (name, arity) ->
                for i = 0 to pow size arity - 1 do
                  if (pattern lsr !bit) land 1 = 1 then
                    base :=
                      Structure.add_tuple !base name
                        (decode_tuple ~size ~arity i);
                  incr bit
                done)
              rels;
            for ci = 0 to const_combos - 1 do
              let vals = Array.to_list (decode_tuple ~size ~arity:nconsts ci) in
              let st = List.fold_left2 Structure.with_const !base consts vals in
              List.iter (test size st) args
            done
          end
        done;
        (* sizes are covered in order, so this tracks the largest prefix *)
        if !exhaustive_upto = size - 1 then exhaustive_upto := size
      end
      else begin
        let rng = Random.State.make [| seed; size; bits |] in
        for _ = 1 to samples do
          let st = ref (Structure.create ~size vocab) in
          List.iter
            (fun (name, arity) ->
              let density =
                match Random.State.int rng 3 with
                | 0 -> 0.15
                | 1 -> 0.5
                | _ -> 0.85
              in
              for i = 0 to pow size arity - 1 do
                if Random.State.float rng 1.0 < density then
                  st := Structure.add_tuple !st name (decode_tuple ~size ~arity i)
              done)
            rels;
          let st =
            List.fold_left
              (fun st c -> Structure.with_const st c (Random.State.int rng size))
              !st consts
          in
          for _ = 1 to draws do
            test size st (random_args rng size arities)
          done
        done
      end
    end
  done;
  { mc_checks = !checks; mc_exhaustive_upto = !exhaustive_upto; mc_cex = !cex }

(* --- the per-program memo --------------------------------------------------- *)

(* The lock is held across [f], so concurrent first lookups of one key
   compute it once; the serving layer warms these at session creation. *)
let memo same f =
  let limit = 64 in
  let cache = ref [] and lock = Mutex.create () in
  fun key ->
    Mutex.protect lock (fun () ->
        match List.find_opt (fun (k, _) -> same k key) !cache with
        | Some (_, v) -> v
        | None ->
            let v = f key in
            cache := (key, v) :: List.filteri (fun i _ -> i < limit - 1) !cache;
            v)

(* --- the reachable-state domain -------------------------------------------- *)

let workload_spec (p : Program.t) =
  let rels =
    List.map
      (fun (s : Vocab.sym) -> (s.name, s.arity))
      (Vocab.relations p.input_vocab)
  in
  Workload.spec ~consts:(Vocab.constants p.input_vocab) rels

(* Seeded request prefixes from the initial state: the domain a serving
   session actually inhabits — it starts at f_n(empty) and applies valid
   requests — so a law refuted only by synthetic structures with
   inconsistent auxiliaries can still be sound for serving when it
   survives here. *)
let build_reachable ((p : Program.t), max_size) =
  let spec = workload_spec p in
  List.concat_map
    (fun size ->
      List.concat_map
        (fun seed ->
          let reqs =
            Workload.generate
              (Random.State.make [| 0xBEA7; size; seed |])
              ~size ~length:32 spec
          in
          let prefixes = [ 0; 6; 16; 32 ] in
          let init = Runner.init p ~size in
          let _, _, states =
            List.fold_left
              (fun (s, i, acc) req ->
                let s = Runner.step s req in
                let i = i + 1 in
                ( s,
                  i,
                  if List.mem i prefixes then (size, Runner.structure s) :: acc
                  else acc ))
              (init, 0, [ (size, Runner.structure init) ])
              reqs
          in
          states)
        [ 1; 2; 3 ])
    (List.init max_size (fun i -> i + 1))

let reachable_memo =
  memo (fun (p, n) (q, m) -> p == q && n = m) build_reachable

let reachable ~max_size p = reachable_memo (p, max_size)

let on_reachable ?(pre = always) ~arities ~check states =
  let test, checks, cex = tester ~pre ~check in
  let rng = Random.State.make [| 0x5EED |] in
  List.iter
    (fun (size, st) ->
      if !cex = None then
        let argss_list =
          if pow size (List.fold_left ( + ) 0 arities) <= 128 then
            all_args size arities
          else List.init 64 (fun _ -> random_args rng size arities)
        in
        List.iter (test size st) argss_list)
    states;
  { mc_checks = !checks; mc_exhaustive_upto = 0; mc_cex = !cex }

(* --- laws ------------------------------------------------------------------- *)

type domain = Synthetic | Reachable
type law = { law_holds : bool; law_domain : domain; law_checks : int }

(* One run per argument shape: the first counterexample wins (with the
   checks spent so far), the exhaustive bound is the weakest claim. *)
let over_shapes run shapes =
  let rec go checks exh = function
    | [] ->
        {
          mc_checks = checks;
          mc_exhaustive_upto = (if exh = max_int then 0 else exh);
          mc_cex = None;
        }
    | arities :: rest -> (
        let r = run arities in
        match r.mc_cex with
        | Some _ -> { r with mc_checks = checks + r.mc_checks }
        | None ->
            go (checks + r.mc_checks) (min exh r.mc_exhaustive_upto) rest)
  in
  go 0 max_int shapes

(* Phase A (synthetic, the stronger claim) then phase B (reachable, the
   domain serving needs): a law is believed only when one of them
   confirms it with at least one check. *)
let verify_law ~seed ~max_size ~budget ~samples ?pre (p : Program.t) ~shapes
    ~check =
  let confirmed r = r.mc_cex = None && r.mc_checks > 0 in
  let a =
    over_shapes
      (fun arities ->
        synthetic ~seed ~draws:4 ?pre ~max_size ~budget ~samples ~arities
          ~check (Program.vocab p))
      shapes
  in
  let domain, r =
    if confirmed a then (Some Synthetic, a)
    else
      let states = reachable ~max_size p in
      let b =
        over_shapes
          (fun arities -> on_reachable ?pre ~arities ~check states)
          shapes
      in
      if confirmed b then
        (Some Reachable, { b with mc_exhaustive_upto = a.mc_exhaustive_upto })
      else if b.mc_cex <> None then (None, b)
      else (None, { a with mc_checks = a.mc_checks + b.mc_checks })
  in
  ( domain,
    r,
    {
      law_holds = domain <> None;
      law_domain = Option.value domain ~default:Synthetic;
      law_checks = r.mc_checks;
    } )

let pp_args argss =
  String.concat "; "
    (List.map
       (fun a -> "(" ^ String.concat "," (List.map string_of_int a) ^ ")")
       argss)

let domain_string = function
  | Synthetic -> "synthetic"
  | Reachable -> "reachable"

let domain_desc domain r =
  match domain with
  | Some Synthetic ->
      Printf.sprintf "on synthetic structures (%d checks, exhaustive to n=%d)"
        r.mc_checks r.mc_exhaustive_upto
  | Some Reachable ->
      Printf.sprintf "on reachable states only (%d checks)" r.mc_checks
  | None -> "nowhere"

let pp_law ppf (what, l) =
  if not l.law_holds then Format.fprintf ppf "not %s" what
  else if l.law_checks = 0 then Format.fprintf ppf "%s (trivial)" what
  else
    Format.fprintf ppf "%s (%s, %d checks)" what
      (domain_string l.law_domain)
      l.law_checks

let law_to_json l =
  Json.Obj
    [
      ("holds", Json.Bool l.law_holds);
      ("domain", Json.Str (domain_string l.law_domain));
      ("checks", Json.Int l.law_checks);
    ]
