open Dynfo_engine

(* --- precomputed numeric bitrels ----------------------------------------- *)

type numkind = Le | Lt | Bit

(* one arity-2 bitrel per (universe size, predicate), computed on first
   use and shared ever after (consumers only read them). The table is
   tiny — n^2 bits per entry — and guarded for concurrent first use. *)
let num_cache : (int * numkind, Bitrel.t) Hashtbl.t = Hashtbl.create 16
let num_mutex = Mutex.create ()

let numeric ~size kind =
  Mutex.lock num_mutex;
  let b =
    match Hashtbl.find_opt num_cache (size, kind) with
    | Some b -> b
    | None ->
        let b = Bitrel.create ~size ~arity:2 in
        for x = 0 to size - 1 do
          for y = 0 to size - 1 do
            let sat =
              match kind with
              | Le -> x <= y
              | Lt -> x < y
              | Bit -> y < Sys.int_size && (x lsr y) land 1 = 1
            in
            if sat then Bitrel.add b [| x; y |]
          done
        done;
        Hashtbl.add num_cache (size, kind) b;
        b
  in
  Mutex.unlock num_mutex;
  b

(* --- compilation context ------------------------------------------------- *)

type ctx = {
  st : Structure.t;
  n : int;
  env : (string * int) list;
  pool : Pool.t;
  work : int ref;  (* the caller's counter: every kernel charges it here *)
}

let charge ctx k = ctx.work := !(ctx.work) + k

(* a term is a scope coordinate or a known constant *)
type arg = Coord of int | Const of int

let term ctx lookup (t : Formula.term) =
  match t with
  | Formula.Var x -> (
      match List.assoc_opt x lookup with
      | Some i -> Coord i
      | None -> (
          match List.assoc_opt x ctx.env with
          | Some v -> Const v
          | None -> (
              match Structure.const ctx.st x with
              | c -> Const c
              | exception Invalid_argument _ ->
                  raise (Eval.Unbound_variable x))))
  | Formula.Num i -> Const i
  | Formula.Min -> Const 0
  | Formula.Max -> Const (ctx.n - 1)

(* --- atoms ---------------------------------------------------------------- *)

(* Atoms constrain only the scope coordinates their variables name. The
   pattern of an atom is therefore periodic in the coordinates left of
   the leftmost constrained one: we build it once over the suffix
   [first..m) (where the slab fills are cheap or even contiguous) and
   tile it across the free prefix word-level with {!Bitrel.lift_pattern}.
   Without this, an atom over innermost quantified variables — trailing
   coordinates, the common case in REACH-style rules — costs one
   single-bit fill per prefix tuple. *)
let lift ctx ~m ~first sub =
  if first = 0 then sub
  else begin
    let dst = Bitrel.create ~size:ctx.n ~arity:m in
    charge ctx (Bitrel.lift_pattern ~dst ~pattern:sub);
    dst
  end

(* cylindrify the stored relation into the scope: for each member tuple,
   select on constant/repeated-variable argument positions, then fill the
   slab of scope tuples agreeing with it on the variable positions *)
let atom_rel ctx m lookup name ts =
  let r =
    try Structure.rel ctx.st name
    with Invalid_argument _ ->
      raise
        (Eval.Unknown_relation
           (Printf.sprintf "unknown relation symbol %S in vocabulary %s" name
              (Vocab.to_string (Structure.vocab ctx.st))))
  in
  let arity = Relation.arity r in
  if List.length ts <> arity then
    raise
      (Eval.Arity_error
         (Printf.sprintf "%s expects %d arguments, got %d" name arity
            (List.length ts)));
  let args = Array.of_list (List.map (term ctx lookup) ts) in
  let first =
    Array.fold_left
      (fun acc -> function Coord i -> min acc i | Const _ -> acc)
      m args
  in
  let sub = Bitrel.create ~size:ctx.n ~arity:(m - first) in
  let bound = Array.make (max 1 m) (-1) in
  let touched = ref [] in
  let work = ref 0 in
  Relation.iter
    (fun tup ->
      let ok = ref true in
      for j = 0 to arity - 1 do
        if !ok then
          match args.(j) with
          | Const c -> if tup.(j) <> c then ok := false
          | Coord i ->
              if bound.(i) = -1 then begin
                bound.(i) <- tup.(j);
                touched := i :: !touched
              end
              else if bound.(i) <> tup.(j) then ok := false
      done;
      if !ok then
        work :=
          !work
          + Bitrel.set_slab sub
              (List.map (fun i -> (i - first, bound.(i))) !touched);
      List.iter (fun i -> bound.(i) <- -1) !touched;
      touched := [])
    r;
  charge ctx !work;
  lift ctx ~m ~first sub

let atom_cmp ctx m lookup kind x y =
  let pred a b =
    match kind with
    | `Eq -> a = b
    | `Le -> a <= b
    | `Lt -> a < b
    | `Bit -> b < Sys.int_size && (a lsr b) land 1 = 1
  in
  let unary i test =
    let sub = Bitrel.create ~size:ctx.n ~arity:(m - i) in
    let work = ref 0 in
    for v = 0 to ctx.n - 1 do
      if test v then work := !work + Bitrel.set_slab sub [ (0, v) ]
    done;
    charge ctx !work;
    lift ctx ~m ~first:i sub
  in
  match (term ctx lookup x, term ctx lookup y) with
  | Const a, Const b ->
      if pred a b then Bitrel.full ~size:ctx.n ~arity:m
      else Bitrel.create ~size:ctx.n ~arity:m
  | Coord i, Const c -> unary i (fun v -> pred v c)
  | Const c, Coord i -> unary i (fun v -> pred c v)
  | Coord i, Coord j when i = j -> unary i (fun v -> pred v v)
  | Coord i, Coord j -> (
      let first = min i j in
      match kind with
      | `Eq ->
          let sub = Bitrel.create ~size:ctx.n ~arity:(m - first) in
          let work = ref 0 in
          for v = 0 to ctx.n - 1 do
            work :=
              !work + Bitrel.set_slab sub [ (i - first, v); (j - first, v) ]
          done;
          charge ctx !work;
          lift ctx ~m ~first sub
      | (`Le | `Lt | `Bit) as k ->
          let tbl =
            numeric ~size:ctx.n
              (match k with `Le -> Le | `Lt -> Lt | `Bit -> Bit)
          in
          if m = 2 && i = 0 && j = 1 then Bitrel.copy tbl
          else begin
            let sub = Bitrel.create ~size:ctx.n ~arity:(m - first) in
            let work = ref 0 in
            Bitrel.iter_codes
              (fun code ->
                let a = code / ctx.n and b = code mod ctx.n in
                work :=
                  !work
                  + Bitrel.set_slab sub [ (i - first, a); (j - first, b) ])
              tbl;
            charge ctx !work;
            lift ctx ~m ~first sub
          end)

(* --- the bottom-up evaluator --------------------------------------------- *)

let rec eval ctx m lookup (f : Formula.t) : Bitrel.t =
  match f with
  | True ->
      let dst = Bitrel.full ~size:ctx.n ~arity:m in
      charge ctx (Bitrel.word_count dst);
      dst
  | False -> Bitrel.create ~size:ctx.n ~arity:m
  | Rel (name, ts) -> atom_rel ctx m lookup name ts
  | Eq (x, y) -> atom_cmp ctx m lookup `Eq x y
  | Le (x, y) -> atom_cmp ctx m lookup `Le x y
  | Lt (x, y) -> atom_cmp ctx m lookup `Lt x y
  | Bit (x, y) -> atom_cmp ctx m lookup `Bit x y
  | Not g ->
      let bg = eval ctx m lookup g in
      let dst = Bitrel.create ~size:ctx.n ~arity:m in
      Bitrel.parallel_words ctx.pool ~lo:0 ~hi:(Bitrel.word_count dst)
        (fun ~lane:_ l r ->
          Bitrel.complement_into ~dst bg ~word_lo:l ~word_hi:r);
      charge ctx (Bitrel.word_count dst);
      dst
  | And (g, h) -> binop ctx m lookup `Inter g h
  | Or (g, h) -> binop ctx m lookup `Union g h
  | Implies (g, h) -> binop ctx m lookup `Implies g h
  | Iff (g, h) -> binop ctx m lookup `Iff g h
  | Exists (vs, g) -> quant ctx m lookup `Or vs g
  | Forall (vs, g) -> quant ctx m lookup `And vs g

and binop ctx m lookup op g h =
  let a = eval ctx m lookup g in
  let b = eval ctx m lookup h in
  let dst = Bitrel.create ~size:ctx.n ~arity:m in
  Bitrel.parallel_words ctx.pool ~lo:0 ~hi:(Bitrel.word_count dst)
    (fun ~lane:_ l r -> Bitrel.blit_op op ~dst a b ~word_lo:l ~word_hi:r);
  charge ctx (Bitrel.word_count dst);
  dst

and quant ctx m lookup op vs g =
  match vs with
  | [] -> eval ctx m lookup g
  | _ ->
      let k = List.length vs in
      (* quantified variables extend the scope on the right: innermost =
         fastest-varying coordinates, so projecting them out is a fold
         over [block] consecutive bits. Within one block the first
         occurrence of a name wins, and the whole block shadows outer
         bindings — exactly Eval's [slots @ env]. *)
      let inner = List.mapi (fun i x -> (x, m + i)) vs @ lookup in
      let body = eval ctx (m + k) inner g in
      let dst = Bitrel.create ~size:ctx.n ~arity:m in
      let block = Bitrel.length body / Bitrel.length dst in
      Bitrel.parallel_words ctx.pool ~lo:0 ~hi:(Bitrel.word_count dst)
        (fun ~lane:_ l r ->
          Bitrel.project op ~block ~src:body ~dst ~word_lo:l ~word_hi:r);
      (* per output word: bits_per_word output bits, block source bits
         each — block words scanned, no-early-exit model *)
      charge ctx (Bitrel.word_count dst * block);
      dst

(* --- public API ---------------------------------------------------------- *)

let bitrel ?(work = ref 0) ?(pool = Pool.inline) st ~vars ?(env = []) f =
  let ctx = { st; n = Structure.size st; env; pool; work } in
  let lookup = List.mapi (fun i x -> (x, i)) vars in
  eval ctx (List.length vars) lookup f

let define ?work ?(pool = Pool.inline) ?(cutoff = Pool.default_cutoff) st
    ~vars ?env f =
  let pool =
    if Pool.tuple_space ~size:(Structure.size st) ~arity:(List.length vars)
       < cutoff
    then Pool.inline
    else pool
  in
  Bitrel.to_relation (bitrel ?work ~pool st ~vars ?env f)

let holds ?work ?pool st ?env f =
  Bitrel.mem (bitrel ?work ?pool st ~vars:[] ?env f) [||]
