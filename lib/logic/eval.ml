open Dynfo_engine

exception Unbound_variable of string
exception Unknown_relation of string
exception Arity_error of string

(* Symbol resolution for the compiler. Resolving through ref cells (one
   per atom occurrence) costs one extra load per test but lets
   {!compile_tester} repoint a compiled closure at a later step's
   structure ({!rebind}) instead of recompiling — relations and
   constants are the only step-varying inputs; the universe size is
   fixed for the life of a run. *)
type bound = {
  b_size : int;
  b_rel : string -> Relation.t ref;  (* raises [Unknown_relation] *)
  b_const : string -> int ref;  (* raises [Unbound_variable] *)
}

let unknown_relation st name =
  (* same message shape as {!Vocab.Unknown_symbol} *)
  Unknown_relation
    (Printf.sprintf "unknown relation symbol %S in vocabulary %s" name
       (Vocab.to_string (Structure.vocab st)))

let bound_of_structure st =
  {
    b_size = Structure.size st;
    b_rel =
      (fun name ->
        match Structure.rel st name with
        | r -> ref r
        | exception Invalid_argument _ -> raise (unknown_relation st name));
    b_const =
      (fun x ->
        match Structure.const st x with
        | c -> ref c
        | exception Invalid_argument _ -> raise (Unbound_variable x));
  }

(* Compile [f] to a closure over a slot array. [env] maps bound variable
   names to slots; [next] is the next free slot. Compilation resolves
   relation symbols through [b] once. Every atomic evaluation of the
   closure increments [work]: the counter is captured, so a closure
   charges only the counter it was compiled against. *)
let compile_bound b ~work env next f =
  let n = b.b_size in
  let term env (t : Formula.term) : int array -> int =
    match t with
    | Formula.Var x -> (
        match List.assoc_opt x env with
        | Some slot -> fun a -> a.(slot)
        | None ->
            let cref = b.b_const x in
            fun _ -> !cref)
    | Formula.Num i -> fun _ -> i
    | Formula.Min -> fun _ -> 0
    | Formula.Max -> fun _ -> n - 1
  in
  let rec go env (f : Formula.t) : int array -> bool =
    match f with
    | True -> fun _ -> true
    | False -> fun _ -> false
    | Rel (name, ts) ->
        let rref = b.b_rel name in
        let arity = Relation.arity !rref in
        if List.length ts <> arity then
          raise
            (Arity_error
               (Printf.sprintf "%s expects %d arguments, got %d" name arity
                  (List.length ts)));
        let getters = Array.of_list (List.map (term env) ts) in
        let buf = Array.make arity 0 in
        fun a ->
          incr work;
          for i = 0 to arity - 1 do
            buf.(i) <- getters.(i) a
          done;
          (* arity was checked at compile time, [buf] has the right
             length by construction *)
          Relation.mem_unchecked !rref buf
    | Eq (x, y) ->
        let gx = term env x and gy = term env y in
        fun a ->
          incr work;
          gx a = gy a
    | Le (x, y) ->
        let gx = term env x and gy = term env y in
        fun a ->
          incr work;
          gx a <= gy a
    | Lt (x, y) ->
        let gx = term env x and gy = term env y in
        fun a ->
          incr work;
          gx a < gy a
    | Bit (x, y) ->
        let gx = term env x and gy = term env y in
        fun a ->
          incr work;
          let vx = gx a and vy = gy a in
          vy < Sys.int_size && (vx lsr vy) land 1 = 1
    | Not g ->
        let cg = go env g in
        fun a -> not (cg a)
    | And (g, h) ->
        let cg = go env g and ch = go env h in
        fun a -> cg a && ch a
    | Or (g, h) ->
        let cg = go env g and ch = go env h in
        fun a -> cg a || ch a
    | Implies (g, h) ->
        let cg = go env g and ch = go env h in
        fun a -> (not (cg a)) || ch a
    | Iff (g, h) ->
        let cg = go env g and ch = go env h in
        fun a -> cg a = ch a
    | Exists (vs, g) -> quant ~univ:false env vs g
    | Forall (vs, g) -> quant ~univ:true env vs g
  and quant ~univ env vs g =
    let slots =
      List.map
        (fun x ->
          let s = !next in
          incr next;
          (x, s))
        vs
    in
    let body = go (slots @ env) g in
    let slot_arr = Array.of_list (List.map snd slots) in
    let k = Array.length slot_arr in
    if univ then
      fun a ->
        let rec loop i =
          if i = k then body a
          else
            let s = slot_arr.(i) in
            let rec try_ v =
              v >= n
              || (a.(s) <- v;
                  loop (i + 1) && try_ (v + 1))
            in
            try_ 0
        in
        loop 0
    else
      fun a ->
        let rec loop i =
          if i = k then body a
          else
            let s = slot_arr.(i) in
            let rec try_ v =
              v < n
              && ((a.(s) <- v;
                   loop (i + 1))
                 || try_ (v + 1))
            in
            try_ 0
        in
        loop 0
  in
  go env f

(* Compile [f] over the slot layout every entry point shares: the tuple
   variables [vars] first, then the environment's names. Returns the
   environment's slots, a slot array with the environment values loaded,
   and the closure over it, charging [work]. *)
let compile_slots b ~work ~vars ~env f =
  let next = ref 0 in
  let slots names =
    List.map
      (fun x ->
        let s = !next in
        incr next;
        (x, s))
      names
  in
  let var_slots = slots vars in
  let env_slots = slots (List.map fst env) in
  let fn = compile_bound b ~work (var_slots @ env_slots) next f in
  let a = Array.make (max 1 !next) 0 in
  List.iter2 (fun (_, s) (_, v) -> a.(s) <- v) env_slots env;
  (env_slots, a, fn)

let holds ?(work = ref 0) st ?(env = []) f =
  let _, a, fn = compile_slots (bound_of_structure st) ~work ~vars:[] ~env f in
  fn a

(* One kernel over tuple-prefix codes: the first [min arity 2]
   coordinates flattened (n or n^2 units, fine-grained enough to balance
   up to 128 lanes), the remaining ones enumerated inside each unit, in
   the same lexicographic order as a plain nested loop. A lane compiles
   its own closure on first use — against a work counter of its own, and
   over an unshared slot array — and collects its hits as [Array.sub]
   blits of the variable prefix. On a one-lane pool that is one compile,
   one hit list and one [Relation.of_list]; on more lanes the lanes' hit
   lists are concatenated into that one set build and their counters
   added into [work], both after the job. Every candidate is tested
   exactly once either way, so the relation and the FO work count do not
   depend on the pool. *)
let define ?(work = ref 0) ?(pool = Pool.inline)
    ?(cutoff = Pool.default_cutoff) st ~vars ?(env = []) f =
  let n = Structure.size st in
  let arity = List.length vars in
  let pool =
    if Pool.tuple_space ~size:n ~arity < cutoff then Pool.inline else pool
  in
  let b = bound_of_structure st in
  let lanes = Array.make (Pool.lanes pool) None in
  let prefix = min arity 2 in
  Pool.parallel_for pool ~lo:0 ~hi:(Pool.tuple_space ~size:n ~arity:prefix)
    (fun ~lane lo hi ->
      let a, fn, hits, _ =
        match lanes.(lane) with
        | Some l -> l
        | None ->
            let w = ref 0 in
            let _, a, fn = compile_slots b ~work:w ~vars ~env f in
            let l = (a, fn, ref [], w) in
            lanes.(lane) <- Some l;
            l
      in
      let rec enum i =
        if i = arity then begin
          if fn a then hits := Array.sub a 0 arity :: !hits
        end
        else
          for v = 0 to n - 1 do
            a.(i) <- v;
            enum (i + 1)
          done
      in
      (* decode [lo] into the prefix coordinates once, then count up *)
      let rec decode i c =
        if i >= 0 then begin
          a.(i) <- c mod n;
          decode (i - 1) (c / n)
        end
      in
      let rec next i =
        if i >= 0 then
          if a.(i) = n - 1 then begin
            a.(i) <- 0;
            next (i - 1)
          end
          else a.(i) <- a.(i) + 1
      in
      decode (prefix - 1) lo;
      for _ = lo to hi - 1 do
        enum prefix;
        next (prefix - 1)
      done);
  Relation.of_list ~arity
    (Array.fold_left
       (fun acc -> function
         | None -> acc
         | Some (_, _, hits, w) ->
             work := !work + !w;
             if acc = [] then !hits else List.rev_append !hits acc)
       [] lanes)

(* --- rebindable testers --------------------------------------------------- *)

type compiled = {
  c_size : int;
  c_arity : int;
  c_env_names : string list;  (* order-sensitive: slots follow the vars *)
  c_rels : (string, Relation.t ref) Hashtbl.t;
  c_consts : (string, int ref) Hashtbl.t;
  c_env_slots : int array;
  c_arr : int array;
  c_fn : int array -> bool;
  c_work : int ref;  (* charged by [c_fn], drained by [test_compiled] *)
}

let compile_tester st ~vars ?(env = []) f =
  let rels = Hashtbl.create 8 in
  let consts = Hashtbl.create 4 in
  let b0 = bound_of_structure st in
  (* intern: one shared ref per symbol, so a rebind repoints every
     occurrence at once *)
  let b =
    {
      b0 with
      b_rel =
        (fun name ->
          match Hashtbl.find_opt rels name with
          | Some r -> r
          | None ->
              let r = b0.b_rel name in
              Hashtbl.add rels name r;
              r);
      b_const =
        (fun x ->
          match Hashtbl.find_opt consts x with
          | Some r -> r
          | None ->
              let r = b0.b_const x in
              Hashtbl.add consts x r;
              r);
    }
  in
  let work = ref 0 in
  let env_slots, a, fn = compile_slots b ~work ~vars ~env f in
  {
    c_size = b.b_size;
    c_arity = List.length vars;
    c_env_names = List.map fst env;
    c_rels = rels;
    c_consts = consts;
    c_env_slots = Array.of_list (List.map snd env_slots);
    c_arr = a;
    c_fn = fn;
    c_work = work;
  }

let rebind c st ~env =
  if Structure.size st <> c.c_size then
    invalid_arg "Eval.rebind: universe size differs from compile time";
  if List.map fst env <> c.c_env_names then
    invalid_arg "Eval.rebind: environment names differ from compile time";
  Hashtbl.iter
    (fun name rref ->
      match Structure.rel st name with
      | r -> rref := r
      | exception Invalid_argument _ -> raise (unknown_relation st name))
    c.c_rels;
  Hashtbl.iter
    (fun x cref ->
      match Structure.const st x with
      | v -> cref := v
      | exception Invalid_argument _ -> raise (Unbound_variable x))
    c.c_consts;
  List.iteri (fun i (_, v) -> c.c_arr.(c.c_env_slots.(i)) <- v) env

let test_compiled ?(work = ref 0) c tup =
  if Array.length tup <> c.c_arity then
    invalid_arg "Eval.test_compiled: tuple arity mismatch";
  Array.blit tup 0 c.c_arr 0 c.c_arity;
  let holds = c.c_fn c.c_arr in
  work := !work + !(c.c_work);
  c.c_work := 0;
  holds
