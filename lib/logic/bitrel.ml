let bits_per_word = Sys.int_size
let bpw = bits_per_word

(* --- pages ----------------------------------------------------------------

   The paged store splits the word space into fixed 64-word pages (4032
   bits at 63 bits/word) held in a flat table, one slot per page:

     None                 every word of the page is zero
     Some ones_page       every *valid* word of the page is all-ones
     Some a  (owned)      a 64-word array with the page's actual words

   The two sentinels are shared physical arrays; identity ([==]) is the
   tag. Owned pages keep the global invariants locally: words past the
   relation's word count are zero and the tail bits of the last word are
   zero, so popcount/equal stay word-wise. The ones sentinel is only
   installed where the whole page is valid bits ([ones_ok]); a partial
   tail page holds an owned masked copy instead. Kernels that would
   write a page first copy-on-write it ([owned]), so a sentinel is never
   mutated and a page array is never shared between two relations. *)

let page_shift = 6
let page_words = 1 lsl page_shift
let page_mask = page_words - 1
let page_bits = page_words * bpw
let zero_page = Array.make page_words 0
let ones_page = Array.make page_words (-1)

(* global page-table telemetry, surfaced by [check] and the daemon stats *)
let pages_allocated_c = Atomic.make 0
let skip_hits_c = Atomic.make 0
let pages_allocated () = Atomic.get pages_allocated_c
let skip_hits () = Atomic.get skip_hits_c

let reset_page_counters () =
  Atomic.set pages_allocated_c 0;
  Atomic.set skip_hits_c 0

let skip n = if n > 0 then ignore (Atomic.fetch_and_add skip_hits_c n)

let alloc_page () =
  Atomic.incr pages_allocated_c;
  Array.make page_words 0

type store = Dense of int array | Paged of int array option array

type t = {
  size : int;
  arity : int;
  length : int;  (* size^arity bits *)
  wc : int;  (* word count *)
  store : store;
}

let space ~size ~arity =
  if size <= 0 then invalid_arg "Bitrel: size must be positive";
  if arity < 0 then invalid_arg "Bitrel: negative arity";
  let rec go acc i =
    if i = 0 then acc
    else if acc > max_int / size then
      invalid_arg "Bitrel: tuple space overflows max_int"
    else go (acc * size) (i - 1)
  in
  go 1 arity

type repr = [ `Auto | `Dense | `Paged ]

(* Dense until the slab would pass ~16 MB: every universe the pre-paged
   test suite and benches touch stays on the dense representation (and
   its exact kernels), the paged one only kicks in at scales the dense
   slab could not reach anyway. *)
let auto_words_limit = 1 lsl 21

let default_repr_r = ref (`Auto : repr)
let set_default_repr r = default_repr_r := r
let default_repr () = !default_repr_r

let auto_repr ~size ~arity =
  let length = space ~size ~arity in
  if (length + bpw - 1) / bpw <= auto_words_limit then `Dense else `Paged

let create_repr (r : repr) ~size ~arity =
  let length = space ~size ~arity in
  let wc = (length + bpw - 1) / bpw in
  let dense = match r with
    | `Dense -> true
    | `Paged -> false
    | `Auto -> wc <= auto_words_limit
  in
  let store =
    if dense then Dense (Array.make wc 0)
    else Paged (Array.make ((wc + page_words - 1) / page_words) None)
  in
  { size; arity; length; wc; store }

let create ~size ~arity = create_repr !default_repr_r ~size ~arity
let repr_of t = match t.store with Dense _ -> `Dense | Paged _ -> `Paged
let size t = t.size
let arity t = t.arity
let length t = t.length
let word_count t = t.wc

let page_count t =
  match t.store with Dense _ -> 0 | Paged tbl -> Array.length tbl

let pages_resident t =
  match t.store with
  | Dense _ -> 0
  | Paged tbl ->
      Array.fold_left
        (fun acc p ->
          match p with Some a when a != ones_page -> acc + 1 | _ -> acc)
        0 tbl

let occupancy t =
  match t.store with
  | Dense _ -> 1.0
  | Paged tbl ->
      let n = Array.length tbl in
      if n = 0 then 0.0 else float_of_int (pages_resident t) /. float_of_int n

(* mask of the bits of the last word that are inside [length] *)
let tail_mask t =
  let rem = t.length mod bpw in
  if rem = 0 then -1 else (1 lsl rem) - 1

(* may page [p] hold the shared all-ones sentinel? Only when every one
   of its [page_bits] bits is a valid tuple bit. *)
let ones_ok t p =
  let hi = (p + 1) lsl page_shift in
  hi <= t.wc && (hi < t.wc || t.length mod bpw = 0)

(* restore the word-count / tail-bit invariants on an owned page *)
let clamp_page t a p =
  let base = p lsl page_shift in
  for i = 0 to page_words - 1 do
    if base + i >= t.wc then a.(i) <- 0
    else if base + i = t.wc - 1 then a.(i) <- a.(i) land tail_mask t
  done

(* copy-on-write: the owned array for page [p], installing it if the
   slot holds a sentinel *)
let owned t tbl p =
  match tbl.(p) with
  | Some a when a != ones_page -> a
  | Some _ ->
      let a = alloc_page () in
      Array.fill a 0 page_words (-1);
      clamp_page t a p;
      tbl.(p) <- Some a;
      a
  | None ->
      let a = alloc_page () in
      tbl.(p) <- Some a;
      a

let set_page_ones t tbl p =
  if ones_ok t p then tbl.(p) <- Some ones_page
  else begin
    let a = owned t tbl p in
    Array.fill a 0 page_words (-1);
    clamp_page t a p
  end

(* drop an owned page back to a sentinel when its contents allow it *)
let normalize t tbl p =
  match tbl.(p) with
  | Some a when a != ones_page ->
      let rec all v i = i >= page_words || (a.(i) = v && all v (i + 1)) in
      if all 0 0 then tbl.(p) <- None
      else if ones_ok t p && all (-1) 0 then tbl.(p) <- Some ones_page
  | _ -> ()

(* --- word accessors ------------------------------------------------------- *)

let get_word t w =
  match t.store with
  | Dense ws -> Array.unsafe_get ws w
  | Paged tbl -> (
      match Array.unsafe_get tbl (w lsr page_shift) with
      | None -> 0
      | Some a -> Array.unsafe_get a (w land page_mask))

let set_word t w v =
  match t.store with
  | Dense ws -> ws.(w) <- v
  | Paged tbl -> (
      let p = w lsr page_shift in
      match tbl.(p) with
      | None when v = 0 -> ()
      | Some a when a == ones_page && v = -1 -> ()
      | _ -> (owned t tbl p).(w land page_mask) <- v)

let or_word t w m =
  if m <> 0 then
    match t.store with
    | Dense ws -> ws.(w) <- ws.(w) lor m
    | Paged tbl -> (
        let p = w lsr page_shift in
        match tbl.(p) with
        | Some a when a == ones_page -> ()
        | _ ->
            let a = owned t tbl p in
            let i = w land page_mask in
            a.(i) <- a.(i) lor m)

let and_word t w m =
  match t.store with
  | Dense ws -> ws.(w) <- ws.(w) land m
  | Paged tbl -> (
      let p = w lsr page_shift in
      match tbl.(p) with
      | None -> ()
      | _ ->
          let a = owned t tbl p in
          let i = w land page_mask in
          a.(i) <- a.(i) land m)

(* page-aligned segments of the word range [word_lo, word_hi):
   [f p seg_lo seg_hi] with [seg_lo, seg_hi) inside page [p] *)
let iter_segs ~word_lo ~word_hi f =
  if word_lo < word_hi then
    for p = word_lo lsr page_shift to (word_hi - 1) lsr page_shift do
      let lo = max word_lo (p lsl page_shift)
      and hi = min word_hi ((p + 1) lsl page_shift) in
      f p lo hi
    done

type cls = Z | O | X

let cls_of t p =
  match t.store with
  | Dense _ -> X
  | Paged tbl -> (
      match tbl.(p) with
      | None -> Z
      | Some a -> if a == ones_page then O else X)

(* view of page [p]: [(arr, off)] such that global word [w] of the page
   is [arr.(w + off)] — a dense store views as itself, a paged page as
   its (possibly sentinel) 64-word array *)
let view t p =
  match t.store with
  | Dense ws -> (ws, 0)
  | Paged tbl -> (
      let off = -(p lsl page_shift) in
      match tbl.(p) with None -> (zero_page, off) | Some a -> (a, off))

let full_repr r ~size ~arity =
  let t = create_repr r ~size ~arity in
  (match t.store with
  | Dense ws ->
      Array.fill ws 0 t.wc (-1);
      if t.wc > 0 then ws.(t.wc - 1) <- ws.(t.wc - 1) land tail_mask t
  | Paged tbl ->
      for p = 0 to Array.length tbl - 1 do
        set_page_ones t tbl p
      done);
  t

let full ~size ~arity = full_repr !default_repr_r ~size ~arity

let copy t =
  let store =
    match t.store with
    | Dense ws -> Dense (Array.copy ws)
    | Paged tbl ->
        Paged
          (Array.map
             (function
               | Some a when a != ones_page ->
                   Atomic.incr pages_allocated_c;
                   Some (Array.copy a)
               | s -> s)
             tbl)
  in
  { t with store }

let check_code t code =
  if code < 0 || code >= t.length then
    invalid_arg (Printf.sprintf "Bitrel: code %d outside [0, %d)" code t.length)

let mem_code t code =
  check_code t code;
  (get_word t (code / bpw) lsr (code mod bpw)) land 1 = 1

let set_code t code =
  check_code t code;
  or_word t (code / bpw) (1 lsl (code mod bpw))

let clear_code t code =
  check_code t code;
  and_word t (code / bpw) (lnot (1 lsl (code mod bpw)))

let encode t tup =
  if Array.length tup <> t.arity then
    invalid_arg
      (Printf.sprintf "Bitrel: tuple arity %d, relation arity %d"
         (Array.length tup) t.arity);
  Tuple.encode ~size:t.size tup

let mem t tup = mem_code t (encode t tup)
let add t tup = set_code t (encode t tup)
let remove t tup = clear_code t (encode t tup)

(* --- population count ---------------------------------------------------- *)

let pop16 =
  let tbl = Bytes.make 65536 '\000' in
  for i = 1 to 65535 do
    Bytes.unsafe_set tbl i
      (Char.unsafe_chr
         (Char.code (Bytes.unsafe_get tbl (i lsr 1)) + (i land 1)))
  done;
  tbl

let popword w =
  (* words are 63-bit; [lsr] is logical, so the top chunk is 15 bits *)
  Char.code (Bytes.unsafe_get pop16 (w land 0xffff))
  + Char.code (Bytes.unsafe_get pop16 ((w lsr 16) land 0xffff))
  + Char.code (Bytes.unsafe_get pop16 ((w lsr 32) land 0xffff))
  + Char.code (Bytes.unsafe_get pop16 ((w lsr 48) land 0xffff))

let popcount t =
  match t.store with
  | Dense ws -> Array.fold_left (fun acc w -> acc + popword w) 0 ws
  | Paged tbl ->
      let acc = ref 0 and skips = ref 0 in
      Array.iter
        (function
          | None -> incr skips
          | Some a when a == ones_page -> acc := !acc + page_bits
          | Some a -> Array.iter (fun w -> acc := !acc + popword w) a)
        tbl;
      skip !skips;
      !acc

let is_empty t =
  match t.store with
  | Dense ws -> Array.for_all (fun w -> w = 0) ws
  | Paged tbl ->
      Array.for_all
        (function
          | None -> true
          | Some a when a == ones_page -> t.length = 0
          | Some a -> Array.for_all (fun w -> w = 0) a)
        tbl

let check_word t w =
  if w < 0 || w >= t.wc then
    invalid_arg
      (Printf.sprintf "Bitrel: word index %d outside [0, %d)" w t.wc)

let clear_words t ws =
  List.iter
    (fun w ->
      check_word t w;
      set_word t w 0)
    ws;
  match t.store with
  | Dense _ -> ()
  | Paged tbl ->
      (* hand every touched page that is now all-zero back to the [None]
         sentinel — once per page, not once per word — so a mask's
         resident pages track its current words, not its history *)
      List.iter (normalize t tbl)
        (List.sort_uniq Int.compare (List.map (fun w -> w lsr page_shift) ws))

let popcount_words t ws =
  List.fold_left
    (fun acc w ->
      check_word t w;
      acc + popword (get_word t w))
    0 ws

let equal a b =
  a.size = b.size && a.arity = b.arity
  &&
  match (a.store, b.store) with
  (* tail bits are kept zero, so word equality is member equality *)
  | Dense aw, Dense bw -> aw = bw
  | _ ->
      let ok = ref true in
      iter_segs ~word_lo:0 ~word_hi:a.wc (fun p lo hi ->
          if !ok then
            match (cls_of a p, cls_of b p) with
            | Z, Z | O, O -> skip 1
            | Z, O | O, Z -> ok := false
            | _ ->
                let aw, ao = view a p and bw, bo = view b p in
                for w = lo to hi - 1 do
                  if Array.unsafe_get aw (w + ao) <> Array.unsafe_get bw (w + bo)
                  then ok := false
                done);
      !ok

let check_words t ~word_lo ~word_hi =
  if word_lo < 0 || word_hi > t.wc || word_lo > word_hi then
    invalid_arg "Bitrel: word range out of bounds"

let iter_codes_between f t ~word_lo ~word_hi =
  check_words t ~word_lo ~word_hi;
  let visit_word w word =
    let word = ref word in
    while !word <> 0 do
      let bit = !word land - !word in
      (* index of the lowest set bit *)
      let rec log2 b i = if b = 1 then i else log2 (b lsr 1) (i + 1) in
      f ((w * bpw) + log2 bit 0);
      word := !word lxor bit
    done
  in
  match t.store with
  | Dense ws ->
      for w = word_lo to word_hi - 1 do
        visit_word w (Array.unsafe_get ws w)
      done
  | Paged _ ->
      let skips = ref 0 in
      iter_segs ~word_lo ~word_hi (fun p lo hi ->
          match cls_of t p with
          | Z -> incr skips
          | _ ->
              let aw, ao = view t p in
              for w = lo to hi - 1 do
                visit_word w (Array.unsafe_get aw (w + ao))
              done);
      skip !skips

let iter_codes f t = iter_codes_between f t ~word_lo:0 ~word_hi:t.wc

(* About eight chunks per lane, rounded up to whole pages: no two lanes
   ever write the same page of a paged destination, so copy-on-write
   page installs need no synchronisation (distinct slots of the page
   table), and the chunks skip exactly the absent pages one whole-range
   pass would. On a dense store the alignment is harmless. *)
let parallel_words pool ~lo ~hi body =
  let c = max 1 ((hi - lo) / (8 * Dynfo_engine.Pool.lanes pool)) in
  Dynfo_engine.Pool.parallel_for pool
    ~chunk:((c + page_words - 1) / page_words * page_words)
    ~lo ~hi body

let iter_members f t =
  iter_codes (fun c -> f (Tuple.decode ~size:t.size ~arity:t.arity c)) t

(* --- converters ---------------------------------------------------------- *)

let of_relation ~size r =
  let t = create ~size ~arity:(Relation.arity r) in
  Relation.iter (fun tup -> add t tup) r;
  t

let to_relation t =
  let acc = ref [] in
  iter_members (fun tup -> acc := tup :: !acc) t;
  Relation.of_list ~arity:t.arity !acc

(* --- word kernels -------------------------------------------------------- *)

let check_compat a b =
  if a.size <> b.size || a.arity <> b.arity then
    invalid_arg "Bitrel: size/arity mismatch"

type op = [ `Union | `Inter | `Diff | `Implies | `Iff ]

let word_op (op : op) a b =
  match op with
  | `Union -> a lor b
  | `Inter -> a land b
  | `Diff -> a land lnot b
  | `Implies -> lnot a lor b
  | `Iff -> lnot (a lxor b)

(* result of [op] on two sentinel-classified pages: [Some true] all-ones,
   [Some false] all-zero, [None] not determined by the classes alone *)
let sentinel_result (op : op) ca cb =
  match op with
  | `Union -> (
      match (ca, cb) with
      | O, _ | _, O -> Some true
      | Z, Z -> Some false
      | _ -> None)
  | `Inter -> (
      match (ca, cb) with
      | Z, _ | _, Z -> Some false
      | O, O -> Some true
      | _ -> None)
  | `Diff -> (
      match (ca, cb) with
      | Z, _ | _, O -> Some false
      | O, Z -> Some true
      | _ -> None)
  | `Implies -> (
      match (ca, cb) with
      | Z, _ | _, O -> Some true
      | O, Z -> Some false
      | _ -> None)
  | `Iff -> (
      match (ca, cb) with
      | Z, Z | O, O -> Some true
      | Z, O | O, Z -> Some false
      | _ -> None)

let blit_op_dense (op : op) dw aw bw ~word_lo ~word_hi =
  match op with
  | `Union ->
      for w = word_lo to word_hi - 1 do
        Array.unsafe_set dw w (Array.unsafe_get aw w lor Array.unsafe_get bw w)
      done
  | `Inter ->
      for w = word_lo to word_hi - 1 do
        Array.unsafe_set dw w (Array.unsafe_get aw w land Array.unsafe_get bw w)
      done
  | `Diff ->
      for w = word_lo to word_hi - 1 do
        Array.unsafe_set dw w
          (Array.unsafe_get aw w land lnot (Array.unsafe_get bw w))
      done
  | `Implies ->
      for w = word_lo to word_hi - 1 do
        Array.unsafe_set dw w
          (lnot (Array.unsafe_get aw w) lor Array.unsafe_get bw w)
      done
  | `Iff ->
      for w = word_lo to word_hi - 1 do
        Array.unsafe_set dw w
          (lnot (Array.unsafe_get aw w lxor Array.unsafe_get bw w))
      done

(* write the constant page [ones?] onto words [lo, hi) of [dst] *)
let write_const dst p lo hi ones =
  match dst.store with
  | Dense dw ->
      Array.fill dw lo (hi - lo) (if ones then -1 else 0);
      if ones && hi = dst.wc then dw.(dst.wc - 1) <- dw.(dst.wc - 1) land tail_mask dst
  | Paged tbl ->
      let whole = lo = p lsl page_shift && hi = min dst.wc ((p + 1) lsl page_shift)
      in
      if whole then (if ones then set_page_ones dst tbl p else tbl.(p) <- None)
      else if not ones then (
        match tbl.(p) with
        | None -> ()
        | _ ->
            let a = owned dst tbl p in
            Array.fill a (lo land page_mask) (hi - lo) 0)
      else begin
        let a = owned dst tbl p in
        Array.fill a (lo land page_mask) (hi - lo) (-1);
        if hi = dst.wc then
          a.((dst.wc - 1) land page_mask) <-
            a.((dst.wc - 1) land page_mask) land tail_mask dst
      end

let blit_op (op : op) ~dst a b ~word_lo ~word_hi =
  check_compat dst a;
  check_compat dst b;
  check_words dst ~word_lo ~word_hi;
  (match (dst.store, a.store, b.store) with
  | Dense dw, Dense aw, Dense bw -> blit_op_dense op dw aw bw ~word_lo ~word_hi
  | _ ->
      let skips = ref 0 in
      iter_segs ~word_lo ~word_hi (fun p lo hi ->
          match sentinel_result op (cls_of a p) (cls_of b p) with
          | Some ones ->
              incr skips;
              write_const dst p lo hi ones
          | None -> (
              match dst.store with
              | Dense dw ->
                  let aw, ao = view a p and bw, bo = view b p in
                  for w = lo to hi - 1 do
                    Array.unsafe_set dw w
                      (word_op op
                         (Array.unsafe_get aw (w + ao))
                         (Array.unsafe_get bw (w + bo)))
                  done
              | Paged tbl ->
                  let dpg = owned dst tbl p in
                  let doff = -(p lsl page_shift) in
                  let aw, ao = view a p and bw, bo = view b p in
                  for w = lo to hi - 1 do
                    Array.unsafe_set dpg (w + doff)
                      (word_op op
                         (Array.unsafe_get aw (w + ao))
                         (Array.unsafe_get bw (w + bo)))
                  done;
                  (* complementing kernels may set invalid bits *)
                  (match op with
                  | `Implies | `Iff -> clamp_page dst dpg p
                  | _ -> ());
                  normalize dst tbl p));
      skip !skips);
  (* complementing kernels turn the zero tail bits of the last word into
     ones; restore the invariant *)
  match (op, dst.store) with
  | (`Implies | `Iff), Dense dw ->
      if word_hi = dst.wc && dst.wc > 0 then
        dw.(dst.wc - 1) <- dw.(dst.wc - 1) land tail_mask dst
  | _ -> ()

let complement_into ~dst a ~word_lo ~word_hi =
  check_compat dst a;
  check_words dst ~word_lo ~word_hi;
  (match (dst.store, a.store) with
  | Dense dw, Dense aw ->
      for w = word_lo to word_hi - 1 do
        Array.unsafe_set dw w (lnot (Array.unsafe_get aw w))
      done;
      if word_hi = dst.wc && dst.wc > 0 then
        dw.(dst.wc - 1) <- dw.(dst.wc - 1) land tail_mask dst
  | _ ->
      let skips = ref 0 in
      iter_segs ~word_lo ~word_hi (fun p lo hi ->
          match cls_of a p with
          | Z ->
              incr skips;
              write_const dst p lo hi true
          | O ->
              incr skips;
              write_const dst p lo hi false
          | X -> (
              let aw, ao = view a p in
              match dst.store with
              | Dense dw ->
                  for w = lo to hi - 1 do
                    Array.unsafe_set dw w (lnot (Array.unsafe_get aw (w + ao)))
                  done;
                  if hi = dst.wc then
                    dw.(dst.wc - 1) <- dw.(dst.wc - 1) land tail_mask dst
              | Paged tbl ->
                  let dpg = owned dst tbl p in
                  let doff = -(p lsl page_shift) in
                  for w = lo to hi - 1 do
                    Array.unsafe_set dpg (w + doff)
                      (lnot (Array.unsafe_get aw (w + ao)))
                  done;
                  clamp_page dst dpg p;
                  normalize dst tbl p));
      skip !skips)

let whole op a b =
  let dst = create_repr (repr_of a) ~size:a.size ~arity:a.arity in
  blit_op op ~dst a b ~word_lo:0 ~word_hi:dst.wc;
  dst

let union a b = whole `Union a b
let inter a b = whole `Inter a b
let diff a b = whole `Diff a b

let complement a =
  let dst = create_repr (repr_of a) ~size:a.size ~arity:a.arity in
  complement_into ~dst a ~word_lo:0 ~word_hi:dst.wc;
  dst

(* --- fills and reductions ------------------------------------------------ *)

let fill_words_ones t w_from w_to =
  match t.store with
  | Dense ws -> Array.fill ws w_from (w_to - w_from) (-1)
  | Paged _ ->
      iter_segs ~word_lo:w_from ~word_hi:w_to (fun p lo hi ->
          write_const t p lo hi true)

let fill_range ?record t ~lo ~hi =
  if lo < 0 || hi > t.length || lo > hi then
    invalid_arg "Bitrel.fill_range: range out of bounds";
  if lo < hi then begin
    let wlo = lo / bpw and whi = (hi - 1) / bpw in
    (match record with Some f -> f wlo (whi + 1) | None -> ());
    let mlo = -1 lsl (lo mod bpw) in
    let r = ((hi - 1) mod bpw) + 1 in
    let mhi = if r = bpw then -1 else (1 lsl r) - 1 in
    if wlo = whi then or_word t wlo (mlo land mhi)
    else begin
      or_word t wlo mlo;
      fill_words_ones t (wlo + 1) whi;
      or_word t whi mhi
    end
  end

let set_slab ?record t assignment =
  let n = t.size in
  let fixed = Array.make (max 1 t.arity) (-1) in
  List.iter
    (fun (c, v) ->
      if c < 0 || c >= t.arity then
        invalid_arg "Bitrel.set_slab: coordinate out of range";
      if fixed.(c) <> -1 then
        invalid_arg "Bitrel.set_slab: duplicate coordinate";
      if v < 0 || v >= n then
        invalid_arg "Bitrel.set_slab: value outside universe";
      fixed.(c) <- v)
    assignment;
  (* longest run of unconstrained trailing coordinates -> one contiguous
     fill of [block] bits per combination of the remaining free ones *)
  let rec last_fixed i = if i >= 0 && fixed.(i) = -1 then last_fixed (i - 1) else i in
  let lf = last_fixed (t.arity - 1) in
  let block = space ~size:n ~arity:(t.arity - 1 - lf) in
  let block_words = ((block + bpw - 1) / bpw) + if block mod bpw = 0 then 0 else 1 in
  let fills = ref 0 in
  let rec go i base =
    if i > lf then begin
      incr fills;
      fill_range ?record t ~lo:(base * block) ~hi:((base * block) + block)
    end
    else if fixed.(i) <> -1 then go (i + 1) ((base * n) + fixed.(i))
    else
      for v = 0 to n - 1 do
        go (i + 1) ((base * n) + v)
      done
  in
  go 0 0;
  !fills * block_words

(* copy bits [0, len) of [ws] onto [dst_lo, dst_lo + len), assuming
   dst_lo >= len and the destination bits are all zero. Written word-level:
   each source word lands as two lor-ed shifts. Reads stay sound even when
   the boundary word is both source and destination, because writes only
   touch bit positions >= dst_lo mod bpw >= len mod bpw, which the
   valid-bit mask of the last source word excludes. *)
let blit_low_bits ws ~dst_lo ~len =
  let off = dst_lo mod bpw and w0 = dst_lo / bpw in
  let src_words = (len + bpw - 1) / bpw in
  let nw = Array.length ws in
  for i = 0 to src_words - 1 do
    let valid = min bpw (len - (i * bpw)) in
    let v =
      Array.unsafe_get ws i land (if valid = bpw then -1 else (1 lsl valid) - 1)
    in
    let d = w0 + i in
    Array.unsafe_set ws d (Array.unsafe_get ws d lor (v lsl off));
    if off > 0 then begin
      let spill = v lsr (bpw - off) in
      if spill <> 0 && d + 1 < nw then
        Array.unsafe_set ws (d + 1) (Array.unsafe_get ws (d + 1) lor spill)
    end
  done

(* the same doubling blit through the page table: zero source words are
   skipped, so all-zero stretches of the destination never allocate *)
let blit_low_bits_t t ~dst_lo ~len =
  let off = dst_lo mod bpw and w0 = dst_lo / bpw in
  let src_words = (len + bpw - 1) / bpw in
  for i = 0 to src_words - 1 do
    let valid = min bpw (len - (i * bpw)) in
    let v =
      get_word t i land (if valid = bpw then -1 else (1 lsl valid) - 1)
    in
    if v <> 0 then begin
      let d = w0 + i in
      or_word t d (v lsl off);
      if off > 0 then begin
        let spill = v lsr (bpw - off) in
        if spill <> 0 && d + 1 < t.wc then or_word t (d + 1) spill
      end
    end
  done

let lift_pattern ~dst ~pattern =
  if dst.size <> pattern.size then invalid_arg "Bitrel.lift_pattern: size mismatch";
  if pattern.length = 0 || dst.length mod pattern.length <> 0 then
    invalid_arg "Bitrel.lift_pattern: pattern does not divide the space";
  if is_empty pattern then 0
  else begin
    let pat_words = (pattern.length + bpw - 1) / bpw in
    (match (dst.store, pattern.store) with
    | Dense dw, Dense pw -> Array.blit pw 0 dw 0 pat_words
    | _ ->
        for w = 0 to pat_words - 1 do
          or_word dst w (get_word pattern w)
        done);
    let filled = ref pattern.length in
    let writes = ref pat_words in
    while !filled < dst.length do
      let m = min !filled (dst.length - !filled) in
      (match dst.store with
      | Dense dw -> blit_low_bits dw ~dst_lo:!filled ~len:m
      | Paged _ -> blit_low_bits_t dst ~dst_lo:!filled ~len:m);
      writes := !writes + ((m + bpw - 1) / bpw);
      filled := !filled + m
    done;
    !writes
  end

let bit_masks ~lo ~hi =
  let wlo = lo / bpw and whi = (hi - 1) / bpw in
  let mlo = -1 lsl (lo mod bpw) in
  let r = ((hi - 1) mod bpw) + 1 in
  let mhi = if r = bpw then -1 else (1 lsl r) - 1 in
  (wlo, whi, mlo, mhi)

(* any nonzero word in [w_from, w_to)? Paged stores skip zero pages and
   answer all-ones pages without touching their words. *)
let scan_any t w_from w_to =
  match t.store with
  | Dense ws ->
      let rec scan w = w < w_to && (Array.unsafe_get ws w <> 0 || scan (w + 1)) in
      scan w_from
  | Paged tbl ->
      let rec page p =
        let lo = max w_from (p lsl page_shift)
        and hi = min w_to ((p + 1) lsl page_shift) in
        lo < hi
        && (match tbl.(p) with
           | None ->
               skip 1;
               page (p + 1)
           | Some a when a == ones_page -> true
           | Some a ->
               let off = -(p lsl page_shift) in
               let rec scan w =
                 w < hi && (Array.unsafe_get a (w + off) <> 0 || scan (w + 1))
               in
               scan lo || page (p + 1))
      in
      w_from < w_to && page (w_from lsr page_shift)

(* every word of [w_from, w_to) all-ones? *)
let scan_all t w_from w_to =
  match t.store with
  | Dense ws ->
      let rec scan w = w >= w_to || (Array.unsafe_get ws w = -1 && scan (w + 1)) in
      scan w_from
  | Paged tbl ->
      let rec page p =
        let lo = max w_from (p lsl page_shift)
        and hi = min w_to ((p + 1) lsl page_shift) in
        lo >= hi
        || (match tbl.(p) with
           | None -> false
           | Some a when a == ones_page ->
               skip 1;
               page (p + 1)
           | Some a ->
               let off = -(p lsl page_shift) in
               let rec scan w =
                 w >= hi || (Array.unsafe_get a (w + off) = -1 && scan (w + 1))
               in
               scan lo && page (p + 1))
      in
      w_from >= w_to || page (w_from lsr page_shift)

let any_in t ~lo ~hi =
  if lo < 0 || hi > t.length || lo > hi then
    invalid_arg "Bitrel.any_in: range out of bounds";
  if lo >= hi then false
  else begin
    let wlo, whi, mlo, mhi = bit_masks ~lo ~hi in
    if wlo = whi then get_word t wlo land mlo land mhi <> 0
    else if get_word t wlo land mlo <> 0 then true
    else scan_any t (wlo + 1) whi || get_word t whi land mhi <> 0
  end

let all_in t ~lo ~hi =
  if lo < 0 || hi > t.length || lo > hi then
    invalid_arg "Bitrel.all_in: range out of bounds";
  lo >= hi
  || begin
       let wlo, whi, mlo, mhi = bit_masks ~lo ~hi in
       if wlo = whi then
         let m = mlo land mhi in
         get_word t wlo land m = m
       else
         get_word t wlo land mlo = mlo
         && scan_all t (wlo + 1) whi
         && get_word t whi land mhi = mhi
     end

(* sentinel class of the *pages* covering bits [bit_lo, bit_hi) — [X]
   unless every covering page is the same sentinel *)
let span_cls t ~bit_lo ~bit_hi =
  match t.store with
  | Dense _ -> X
  | Paged tbl ->
      let p0 = (bit_lo / bpw) lsr page_shift
      and p1 = ((bit_hi - 1) / bpw) lsr page_shift in
      let cls p =
        match tbl.(p) with
        | None -> Z
        | Some a -> if a == ones_page then O else X
      in
      let c0 = cls p0 in
      if c0 = X then X
      else begin
        let rec go p = if p > p1 then c0 else if cls p = c0 then go (p + 1) else X in
        go (p0 + 1)
      end

let project op ~block ~src ~dst ~word_lo ~word_hi =
  if src.size <> dst.size then invalid_arg "Bitrel.project: size mismatch";
  if block < 1 || src.length <> block * dst.length then
    invalid_arg "Bitrel.project: block does not factor the source";
  check_words dst ~word_lo ~word_hi;
  if block = 1 then (
    match (src.store, dst.store) with
    | Dense sw, Dense dw -> Array.blit sw word_lo dw word_lo (word_hi - word_lo)
    | _ ->
        let skips = ref 0 in
        iter_segs ~word_lo ~word_hi (fun p lo hi ->
            match cls_of src p with
            | Z ->
                incr skips;
                write_const dst p lo hi false
            | O ->
                incr skips;
                write_const dst p lo hi true
            | X -> (
                let sw, so = view src p in
                match dst.store with
                | Dense dw -> Array.blit sw (lo + so) dw lo (hi - lo)
                | Paged tbl ->
                    let dpg = owned dst tbl p in
                    Array.blit sw (lo + so) dpg (lo land page_mask) (hi - lo);
                    normalize dst tbl p));
        skip !skips)
  else
    for w = word_lo to word_hi - 1 do
      let bit_lo = w * bpw in
      let bit_hi = min dst.length (bit_lo + bpw) in
      let full_mask =
        if bit_hi - bit_lo = bpw then -1 else (1 lsl (bit_hi - bit_lo)) - 1
      in
      let acc =
        (* one page-class scan of the whole source span answers every
           bit of the destination word at once when the span is a
           uniform sentinel *)
        match span_cls src ~bit_lo:(bit_lo * block) ~bit_hi:(bit_hi * block) with
        | Z ->
            skip 1;
            0
        | O ->
            skip 1;
            full_mask
        | X ->
            let acc = ref 0 in
            (match op with
            | `Or ->
                for i = bit_lo to bit_hi - 1 do
                  if any_in src ~lo:(i * block) ~hi:((i + 1) * block) then
                    acc := !acc lor (1 lsl (i - bit_lo))
                done
            | `And ->
                for i = bit_lo to bit_hi - 1 do
                  if all_in src ~lo:(i * block) ~hi:((i + 1) * block) then
                    acc := !acc lor (1 lsl (i - bit_lo))
                done);
            !acc
      in
      set_word dst w acc
    done

(* --- serialization -------------------------------------------------------- *)

(* Words are 63-bit native ints; on the wire each becomes an 8-byte
   little-endian int64. A word with bit 62 set is a negative OCaml int,
   so the int64 is its sign extension — bits 63 and 62 always agree,
   which is exactly what [of_bytes] validates. The format is tied to
   [bits_per_word] and rejects loads on a host with a different word
   size — snapshots are restart artifacts, not an interchange format.
   Both representations serialize to the same byte stream: the wire
   format does not know about pages. *)
let to_bytes t =
  let b = Bytes.create (t.wc * 8) in
  for i = 0 to t.wc - 1 do
    Bytes.set_int64_le b (i * 8) (Int64.of_int (get_word t i))
  done;
  Bytes.unsafe_to_string b

let of_bytes ~size ~arity s =
  if bpw <> 63 then
    invalid_arg "Bitrel.of_bytes: host word size is not 63 bits";
  let t = create ~size ~arity in
  let wc = t.wc in
  if String.length s <> wc * 8 then
    invalid_arg
      (Printf.sprintf "Bitrel.of_bytes: expected %d bytes, got %d" (wc * 8)
         (String.length s));
  for i = 0 to wc - 1 do
    let w64 = String.get_int64_le s (i * 8) in
    (* [Int64.to_int] truncates to 63 bits; a slab written by [to_bytes]
       always sign-extends, so anything else is corruption *)
    let w = Int64.to_int w64 in
    if Int64.of_int w <> w64 then
      invalid_arg "Bitrel.of_bytes: word outside the 63-bit range";
    set_word t i w
  done;
  if wc > 0 && get_word t (wc - 1) land lnot (tail_mask t) <> 0 then
    invalid_arg "Bitrel.of_bytes: nonzero bits past the tuple space";
  t

let pp ppf t =
  Format.fprintf ppf "{%a}"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf "; ")
       Tuple.pp)
    (let acc = ref [] in
     iter_members (fun tup -> acc := tup :: !acc) t;
     List.rev !acc)
