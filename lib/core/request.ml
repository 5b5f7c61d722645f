open Dynfo_logic

type t =
  | Ins of string * Tuple.t
  | Del of string * Tuple.t
  | Set of string * int
  | Ins_set of string * Tuple.t list
  | Del_set of string * Tuple.t list
  | Ins_def of string * string list * Formula.t
  | Del_def of string * string list * Formula.t

let ins name xs = Ins (name, Array.of_list xs)
let del name xs = Del (name, Array.of_list xs)
let set name a = Set (name, a)
let ins_set name tups = Ins_set (name, List.map Array.of_list tups)
let del_set name tups = Del_set (name, List.map Array.of_list tups)
let ins_def name vars f = Ins_def (name, vars, f)
let del_def name vars f = Del_def (name, vars, f)

let is_batch = function
  | Ins _ | Del _ | Set _ -> false
  | Ins_set _ | Del_set _ | Ins_def _ | Del_def _ -> true

(* A change formula may only mention symbols the vocabulary declares:
   relation atoms with the declared arity, and free identifiers that are
   either the change's own parameters or constant symbols. Anything else
   would blow up at expansion time inside a serving worker, so [valid]
   walks the formula up front. *)
let formula_fits vocab ~vars f =
  let ok = ref true in
  let rec go bound = function
    | Formula.True | Formula.False -> ()
    | Formula.Rel (r, ts) ->
        if Vocab.arity_opt vocab r <> Some (List.length ts) then ok := false;
        List.iter (term bound) ts
    | Formula.Eq (a, b)
    | Formula.Le (a, b)
    | Formula.Lt (a, b)
    | Formula.Bit (a, b) ->
        term bound a;
        term bound b
    | Formula.Not f -> go bound f
    | Formula.And (a, b)
    | Formula.Or (a, b)
    | Formula.Implies (a, b)
    | Formula.Iff (a, b) ->
        go bound a;
        go bound b
    | Formula.Exists (xs, f) | Formula.Forall (xs, f) ->
        go (List.rev_append xs bound) f
  and term bound = function
    | Formula.Var x ->
        if
          not
            (List.mem x bound || List.mem x vars || Vocab.mem_const vocab x)
        then ok := false
    | Formula.Num _ | Formula.Min | Formula.Max -> ()
  in
  go [] f;
  !ok

let distinct vars =
  List.length (List.sort_uniq String.compare vars) = List.length vars

let valid vocab ~size = function
  | Ins (name, tup) | Del (name, tup) ->
      Vocab.arity_opt vocab name = Some (Array.length tup)
      && Tuple.in_universe ~size tup
  | Set (name, a) -> Vocab.mem_const vocab name && 0 <= a && a < size
  | Ins_set (name, tups) | Del_set (name, tups) -> (
      match Vocab.arity_opt vocab name with
      | None -> false
      | Some k ->
          List.for_all
            (fun t -> Array.length t = k && Tuple.in_universe ~size t)
            tups)
  | Ins_def (name, vars, f) | Del_def (name, vars, f) ->
      Vocab.arity_opt vocab name = Some (List.length vars)
      && distinct vars
      && List.for_all (fun v -> not (Vocab.mem_const vocab v)) vars
      && formula_fits vocab ~vars f

(* Batches: an explicit list of requests applied as one evaluation tick
   (Runner.step_batch). Request texts never contain ';' (formulas have no
   ';' token), so the textual form is the ';'-joined singleton forms. *)

let valid_batch vocab ~size reqs = List.for_all (valid vocab ~size) reqs

let pp_tuples ppf tups =
  List.iter (fun t -> Format.fprintf ppf " %a" Tuple.pp t) tups

let pp_vars ppf vars =
  Format.fprintf ppf "(%s)" (String.concat ", " vars)

let pp ppf = function
  | Ins (name, tup) -> Format.fprintf ppf "ins %s %a" name Tuple.pp tup
  | Del (name, tup) -> Format.fprintf ppf "del %s %a" name Tuple.pp tup
  | Set (name, a) -> Format.fprintf ppf "set %s %d" name a
  | Ins_set (name, tups) ->
      Format.fprintf ppf "ins* %s%a" name pp_tuples tups
  | Del_set (name, tups) ->
      Format.fprintf ppf "del* %s%a" name pp_tuples tups
  | Ins_def (name, vars, f) ->
      Format.fprintf ppf "insdef %s %a : %a" name pp_vars vars Formula.pp f
  | Del_def (name, vars, f) ->
      Format.fprintf ppf "deldef %s %a : %a" name pp_vars vars Formula.pp f

let to_string r = Format.asprintf "%a" pp r

let malformed line = failwith (Printf.sprintf "Request.parse: malformed %S" line)

(* "(1, 2) (3, 4)" -> [[|1;2|]; [|3;4|]]. Tuples are parenthesised and
   never nest, so scanning for balanced spans suffices. *)
let parse_tuple_list line s =
  let s = String.trim s in
  let n = String.length s in
  let out = ref [] in
  let i = ref 0 in
  while !i < n do
    while !i < n && s.[!i] = ' ' do incr i done;
    if !i < n then begin
      if s.[!i] <> '(' then malformed line;
      let j =
        try String.index_from s !i ')' with Not_found -> malformed line
      in
      let inner = String.sub s (!i + 1) (j - !i - 1) in
      let comps =
        if String.trim inner = "" then []
        else
          List.map
            (fun c ->
              match int_of_string_opt (String.trim c) with
              | Some v -> v
              | None -> malformed line)
            (String.split_on_char ',' inner)
      in
      out := Array.of_list comps :: !out;
      i := j + 1
    end
  done;
  List.rev !out

(* "insdef E (x, y) : phi" — head before the first ':', formula after. *)
let parse_def line kind rest =
  match String.index_opt rest ':' with
  | None -> malformed line
  | Some c ->
      let head = String.trim (String.sub rest 0 c) in
      let body =
        String.trim (String.sub rest (c + 1) (String.length rest - c - 1))
      in
      let name, vars_s =
        match String.index_opt head '(' with
        | None -> malformed line
        | Some p ->
            ( String.trim (String.sub head 0 p),
              String.sub head p (String.length head - p) )
      in
      let vs = String.trim vars_s in
      let len = String.length vs in
      if name = "" || len < 2 || vs.[0] <> '(' || vs.[len - 1] <> ')' then
        malformed line;
      let inner = String.trim (String.sub vs 1 (len - 2)) in
      let vars =
        if inner = "" then []
        else List.map String.trim (String.split_on_char ',' inner)
      in
      let f =
        try Parser.parse body with Parser.Parse_error _ -> malformed line
      in
      if kind = "insdef" then Ins_def (name, vars, f)
      else Del_def (name, vars, f)

let parse line =
  let fail () = malformed line in
  let line = String.trim line in
  match String.split_on_char ' ' line |> List.filter (fun s -> s <> "") with
  | [ "set"; name; a ] -> (
      match int_of_string_opt a with Some a -> Set (name, a) | None -> fail ())
  | kind :: name :: rest when (kind = "insdef" || kind = "deldef") && rest <> []
    ->
      parse_def line kind (name ^ " " ^ String.concat " " rest)
  | kind :: name :: rest when kind = "ins*" || kind = "del*" ->
      let tups = parse_tuple_list line (String.concat " " rest) in
      if kind = "ins*" then Ins_set (name, tups) else Del_set (name, tups)
  | kind :: name :: rest when (kind = "ins" || kind = "del") && rest <> [] -> (
      let tup = String.trim (String.concat "" rest) in
      let len = String.length tup in
      if len < 2 || tup.[0] <> '(' || tup.[len - 1] <> ')' then fail ()
      else
        let inner = String.sub tup 1 (len - 2) in
        let comps =
          if String.trim inner = "" then []
          else
            List.map
              (fun s ->
                match int_of_string_opt (String.trim s) with
                | Some i -> i
                | None -> fail ())
              (String.split_on_char ',' inner)
        in
        match kind with
        | "ins" -> ins name comps
        | _ -> del name comps)
  | _ -> fail ()

let batch_to_string reqs = String.concat "; " (List.map to_string reqs)

let parse_batch line =
  String.split_on_char ';' line
  |> List.filter_map (fun s ->
         if String.trim s = "" then None else Some (parse s))

(* Expansion happens against the structure at the start of the tick: an
   FO-defined change selects its tuple set in the pre-state, exactly the
   "definable changes" reading (Schwentick-Vortmeier-Zeume) where the
   change formula is evaluated before any of the step's updates land.
   Redundant members are dropped here (inserting a present tuple /
   deleting an absent one), so the expansion is the minimal singleton
   sequence whose fold realises the set change. *)
let expand ?work st req =
  match req with
  | Ins _ | Del _ | Set _ -> [ req ]
  | Ins_set (name, tups) -> List.map (fun t -> Ins (name, t)) tups
  | Del_set (name, tups) -> List.map (fun t -> Del (name, t)) tups
  (* the defined set is enumerated through the bulk evaluator's bitset:
     one compiled word-kernel pass over the formula, then a bit scan of
     the result — instead of one compiled-closure [Eval] test per tuple
     of the space. Codes ascend in {!Tuple.encode}'s row-major order,
     which is exactly lexicographic [Tuple.compare] order, so the
     singleton sequence is unchanged. *)
  | Ins_def (name, vars, f) ->
      let sel = Bulk_eval.bitrel ?work st ~vars f in
      let cur = Structure.rel st name in
      let size = Structure.size st and arity = List.length vars in
      let acc = ref [] in
      Bitrel.iter_codes
        (fun c ->
          let t = Tuple.decode ~size ~arity c in
          if not (Relation.mem cur t) then acc := Ins (name, t) :: !acc)
        sel;
      List.rev !acc
  | Del_def (name, vars, f) ->
      let sel = Bulk_eval.bitrel ?work st ~vars f in
      let cur = Structure.rel st name in
      let size = Structure.size st and arity = List.length vars in
      let acc = ref [] in
      Bitrel.iter_codes
        (fun c ->
          let t = Tuple.decode ~size ~arity c in
          if Relation.mem cur t then acc := Del (name, t) :: !acc)
        sel;
      List.rev !acc

let expand_batch ?work st reqs = List.concat_map (expand ?work st) reqs
