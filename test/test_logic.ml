(* Tests for the FO substrate: tuples, relations, structures, formulas,
   parser, evaluator. *)

open Dynfo_logic

let check = Alcotest.check
let tb = Alcotest.bool
let ti = Alcotest.int

(* --- Tuple ------------------------------------------------------------ *)

let test_tuple_encode_decode () =
  let t = [| 3; 0; 7 |] in
  let code = Tuple.encode ~size:8 t in
  check ti "code" ((3 * 64) + 0 + 7) code;
  check tb "roundtrip" true
    (Tuple.equal t (Tuple.decode ~size:8 ~arity:3 code))

let test_tuple_encode_range () =
  Alcotest.check_raises "out of range" (Invalid_argument
    "Tuple.encode: component out of range") (fun () ->
      ignore (Tuple.encode ~size:4 [| 4 |]))

let test_tuple_order () =
  check tb "lex" true (Tuple.compare [| 1; 2 |] [| 1; 3 |] < 0);
  check tb "shorter first" true (Tuple.compare [| 9 |] [| 0; 0 |] < 0);
  check tb "equal" true (Tuple.compare [| 2; 2 |] [| 2; 2 |] = 0)

let test_tuple_hash () =
  let t1 = [| 3; 0; 7 |] and t2 = [| 3; 0; 7 |] in
  check ti "equal tuples hash equal" (Tuple.hash t1) (Tuple.hash t2);
  check tb "non-negative" true (Tuple.hash t1 >= 0);
  check tb "non-negative (empty)" true (Tuple.hash [||] >= 0);
  (* length is mixed in: a prefix must not collide with its extension *)
  check tb "prefix distinct" true (Tuple.hash [| 0 |] <> Tuple.hash [| 0; 0 |])

let tuple_hash_qcheck =
  QCheck.Test.make ~name:"tuple hash respects equality and sign" ~count:500
    QCheck.(list_of_size Gen.(0 -- 5) (int_range 0 1000))
    (fun comps ->
      let t = Array.of_list comps in
      Tuple.hash t >= 0 && Tuple.hash t = Tuple.hash (Array.copy t))

let tuple_qcheck =
  QCheck.Test.make ~name:"tuple encode/decode roundtrip" ~count:200
    QCheck.(pair (int_range 2 9) (list_of_size Gen.(1 -- 4) (int_range 0 8)))
    (fun (size, comps) ->
      QCheck.assume (List.for_all (fun c -> c < size) comps);
      let t = Array.of_list comps in
      let code = Tuple.encode ~size t in
      Tuple.equal t (Tuple.decode ~size ~arity:(Array.length t) code))

(* --- Relation ----------------------------------------------------------- *)

let test_relation_basics () =
  let r = Relation.empty ~arity:2 in
  let r = Relation.add r [| 1; 2 |] in
  let r = Relation.add r [| 1; 2 |] in
  check ti "idempotent add" 1 (Relation.cardinal r);
  let r = Relation.remove r [| 1; 2 |] in
  check tb "removed" true (Relation.is_empty r);
  Alcotest.check_raises "arity" (Invalid_argument
    "Relation: tuple arity 1, relation arity 2") (fun () ->
      ignore (Relation.mem r [| 1 |]))

let test_relation_algebra () =
  let mk l = Relation.of_list ~arity:1 (List.map (fun x -> [| x |]) l) in
  let a = mk [ 1; 2; 3 ] and b = mk [ 2; 3; 4 ] in
  check ti "union" 4 (Relation.cardinal (Relation.union a b));
  check ti "inter" 2 (Relation.cardinal (Relation.inter a b));
  check ti "diff" 1 (Relation.cardinal (Relation.diff a b));
  check tb "subset" true (Relation.subset (Relation.inter a b) a)

let test_relation_symmetric () =
  let r = Relation.of_list ~arity:2 [ [| 0; 1 |]; [| 2; 3 |] ] in
  let s = Relation.symmetric_closure r in
  check ti "doubled" 4 (Relation.cardinal s);
  check tb "flipped present" true (Relation.mem s [| 1; 0 |])

let relation_qcheck =
  QCheck.Test.make ~name:"relation union is commutative and idempotent"
    ~count:200
    QCheck.(
      pair
        (list (pair (int_range 0 5) (int_range 0 5)))
        (list (pair (int_range 0 5) (int_range 0 5))))
    (fun (xs, ys) ->
      let mk l = Relation.of_list ~arity:2 (List.map (fun (a, b) -> [| a; b |]) l) in
      let a = mk xs and b = mk ys in
      Relation.equal (Relation.union a b) (Relation.union b a)
      && Relation.equal (Relation.union a a) a)

(* --- Vocab / Structure -------------------------------------------------- *)

let test_vocab () =
  let v = Vocab.make ~rels:[ ("E", 2); ("F", 2) ] ~consts:[ "s" ] in
  check tb "rel" true (Vocab.mem_rel v "E");
  check tb "const" true (Vocab.mem_const v "s");
  check ti "arity" 2 (Vocab.arity_of v "F");
  Alcotest.check_raises "duplicate"
    (Invalid_argument "Vocab.make: duplicate symbol \"E\"") (fun () ->
      ignore (Vocab.make ~rels:[ ("E", 1); ("E", 2) ] ~consts:[]))

let test_vocab_unknown_symbol () =
  let v = Vocab.make ~rels:[ ("E", 2) ] ~consts:[ "s" ] in
  check tb "arity_opt known" true (Vocab.arity_opt v "E" = Some 2);
  check tb "arity_opt unknown" true (Vocab.arity_opt v "G" = None);
  Alcotest.check_raises "descriptive unknown-symbol error"
    (Vocab.Unknown_symbol
       "unknown relation symbol \"G\" in vocabulary <E^2, s>") (fun () ->
      ignore (Vocab.arity_of v "G"))

let test_vocab_union () =
  let a = Vocab.make ~rels:[ ("E", 2) ] ~consts:[ "s" ] in
  let b = Vocab.make ~rels:[ ("F", 2); ("E", 2) ] ~consts:[ "t" ] in
  let u = Vocab.union a b in
  check ti "rels merged" 2 (List.length (Vocab.relations u));
  Alcotest.check_raises "conflicting arity"
    (Invalid_argument "Vocab.union: \"E\" redeclared with another arity")
    (fun () ->
      ignore (Vocab.union a (Vocab.make ~rels:[ ("E", 3) ] ~consts:[])))

let test_structure () =
  let v = Vocab.make ~rels:[ ("E", 2) ] ~consts:[ "s" ] in
  let st = Structure.create ~size:4 v in
  check ti "default const" 0 (Structure.const st "s");
  let st = Structure.add_tuple st "E" [| 1; 2 |] in
  check tb "mem" true (Structure.mem st "E" [| 1; 2 |]);
  let st = Structure.with_const st "s" 3 in
  check ti "const" 3 (Structure.const st "s");
  Alcotest.check_raises "const range"
    (Invalid_argument "Structure.with_const: value outside universe")
    (fun () -> ignore (Structure.with_const st "s" 4));
  Alcotest.check_raises "tuple range"
    (Invalid_argument "Structure: tuple component outside universe")
    (fun () -> ignore (Structure.add_tuple st "E" [| 0; 9 |]))

let test_structure_restrict () =
  let v = Vocab.make ~rels:[ ("E", 2); ("F", 2) ] ~consts:[] in
  let st = Structure.add_tuple (Structure.create ~size:3 v) "F" [| 0; 1 |] in
  let sub = Structure.restrict st (Vocab.make ~rels:[ ("E", 2) ] ~consts:[]) in
  Alcotest.check_raises "F gone" (Invalid_argument
    "Structure.rel: unknown relation \"F\"") (fun () ->
      ignore (Structure.rel sub "F"))

(* --- Formula ------------------------------------------------------------ *)

let test_free_vars () =
  let f = Parser.parse "E(x, y) & all y (E(y, z) -> x = y)" in
  Alcotest.(check (list string)) "free vars" [ "x"; "y"; "z" ]
    (Formula.free_vars f)

let test_qdepth_size () =
  let f = Parser.parse "ex u v (E(u, v) & all z (E(z, u)))" in
  check ti "depth" 3 (Formula.quantifier_depth f);
  check tb "size positive" true (Formula.size f > 3)

let test_quantifier_rank () =
  let r src = Formula.quantifier_rank (Parser.parse src) in
  check ti "qf" 0 (r "E(x, y) & x = y");
  check ti "one block of two" 2 (r "ex u v (E(u, v))");
  check ti "nested" 3 (r "ex u v (E(u, v) & all z (E(z, u)))");
  check ti "max of branches" 2
    (r "ex u (E(u, u)) & ex v (all w (E(v, w)))");
  check ti "alias" (r "ex u (all v (E(u, v)))")
    (Formula.quantifier_depth (Parser.parse "ex u (all v (E(u, v)))"))

let test_alternation_depth () =
  let a src = Formula.alternation_depth (Parser.parse src) in
  check ti "qf" 0 (a "E(x, y)");
  check ti "purely existential" 1 (a "ex u v (E(u, v))");
  check ti "adjacent same kind merge" 1 (a "ex u (E(u, u) & ex v (E(u, v)))");
  check ti "ex-all" 2 (a "ex u (all v (E(u, v)))");
  (* a negated forall is existential in the NNF: ~all v ~E = ex v E *)
  check ti "polarity-aware" 1 (a "~(all v (~E(v, v)))");
  check ti "implies flips antecedent" 1
    (a "all u (E(u, u)) -> ex v (E(v, v))")

let test_width_rel_atoms () =
  let f = Parser.parse "E(x, y) & ex z (E(z, x) | M(z))" in
  check ti "width" 3 (Formula.width f);
  Alcotest.(check (list (pair string int)))
    "atoms with argument counts"
    [ ("E", 2); ("E", 2); ("M", 1) ]
    (List.map
       (fun (n, ts) -> (n, List.length ts))
       (Formula.rel_atoms f))

(* prenex preserves quantifier rank for formulas whose quantifiers lie
   along a single branch (the common shape of update formulas); for
   sibling quantified subformulas it can only stack prefixes, i.e. grow
   the rank. *)
let test_prenex_rank_linear () =
  List.iter
    (fun src ->
      let f = Parser.parse src in
      check ti
        (Printf.sprintf "rank preserved: %s" src)
        (Formula.quantifier_rank f)
        (Formula.quantifier_rank (Transform.prenex f)))
    [
      "ex u v (E(u, v) & all z (E(z, u)))";
      "all x (E(x, x) -> ex y (E(x, y)))";
      "~(ex x (all y (E(x, y))))";
      "E(x, y) & ex z (M(z))";
      "ex x (M(x)) | E(y, y)";
    ]

let test_subst_capture () =
  (* substituting u for x under a binder of u must rename the binder *)
  let f = Parser.parse "ex u (E(x, u))" in
  let g = Formula.subst [ ("x", Formula.Var "u") ] f in
  (match g with
  | Formula.Exists ([ fresh ], Formula.Rel ("E", [ Formula.Var a; Formula.Var b ])) ->
      check tb "renamed binder" true (fresh <> "u");
      check Alcotest.string "outer var inserted" "u" a;
      check Alcotest.string "bound occurrence follows binder" fresh b
  | _ -> Alcotest.fail "unexpected shape")

let test_substitute_rel () =
  let f = Parser.parse "P(x, y) & ex z (P(z, z))" in
  let g =
    Formula.substitute_rel
      [ ("P", ([ "a"; "b" ], Parser.parse "E(a, b) | E(b, a)")) ]
      f
  in
  check tb "no P left" true
    (not (String.length (Formula.to_string g) > 0
          && String.index_opt (Formula.to_string g) 'P' <> None))

let test_pp_parse_roundtrip () =
  let srcs =
    [
      "E(x, y) & x != t & all z (E(x, z) -> z = y)";
      "(b() & M(a)) | (~b() & ~M(a))";
      "ex u v (Eq(u, v) & P(x, u) & P(v, y))";
      "x <= y -> (BIT(x, y) <-> min < max)";
      "true & ~false";
    ]
  in
  List.iter
    (fun src ->
      let f = Parser.parse src in
      let f' = Parser.parse (Formula.to_string f) in
      check tb src true (Formula.equal f f'))
    srcs

(* full-grammar generator for the parser round-trip: every connective,
   every atom kind, multi-variable quantifier blocks, nonnegative
   numerals (the lexer has no '-'), keyword-free identifiers *)
let gen_formula_full =
  let open QCheck.Gen in
  let var = oneofl [ "x"; "y"; "z"; "u"; "v'" ] in
  let term =
    frequency
      [
        (4, map (fun v -> Formula.Var v) var);
        (1, return Formula.Min);
        (1, return Formula.Max);
        (1, map (fun i -> Formula.Num i) (0 -- 9));
      ]
  in
  let atom =
    oneof
      [
        return Formula.True;
        return Formula.False;
        map2 (fun a b -> Formula.Eq (a, b)) term term;
        map2 (fun a b -> Formula.Le (a, b)) term term;
        map2 (fun a b -> Formula.Lt (a, b)) term term;
        map2 (fun a b -> Formula.Bit (a, b)) term term;
        map2 (fun a b -> Formula.Rel ("E", [ a; b ])) term term;
        map (fun a -> Formula.Rel ("M", [ a ])) term;
        return (Formula.Rel ("b", []));
      ]
  in
  let rec go depth =
    if depth = 0 then atom
    else
      let sub = go (depth - 1) in
      frequency
        [
          (3, atom);
          (2, map2 (fun a b -> Formula.And (a, b)) sub sub);
          (2, map2 (fun a b -> Formula.Or (a, b)) sub sub);
          (2, map2 (fun a b -> Formula.Implies (a, b)) sub sub);
          (2, map2 (fun a b -> Formula.Iff (a, b)) sub sub);
          (2, map (fun a -> Formula.Not a) sub);
          ( 1,
            map2
              (fun vs a -> Formula.Exists (vs, a))
              (list_size (1 -- 2) var)
              sub );
          ( 1,
            map2
              (fun vs a -> Formula.Forall (vs, a))
              (list_size (1 -- 2) var)
              sub );
        ]
  in
  go 4

let parse_roundtrip_qcheck =
  QCheck.Test.make ~name:"Parser.parse ∘ Formula.to_string = id"
    ~count:2000
    (QCheck.make gen_formula_full ~print:Formula.to_string)
    (fun f -> Formula.equal (Parser.parse (Formula.to_string f)) f)

(* random formula generator for evaluator laws *)
let gen_formula =
  let open QCheck.Gen in
  let var = oneofl [ "x"; "y"; "z" ] in
  let term = oneof [ map (fun v -> Formula.Var v) var;
                     return Formula.Min; return Formula.Max ] in
  let atom =
    oneof
      [
        map2 (fun a b -> Formula.Eq (a, b)) term term;
        map2 (fun a b -> Formula.Le (a, b)) term term;
        map2 (fun a b -> Formula.Rel ("E", [ a; b ])) term term;
        map (fun a -> Formula.Rel ("M", [ a ])) term;
      ]
  in
  let rec go depth =
    if depth = 0 then atom
    else
      frequency
        [
          (2, atom);
          (2, map2 (fun a b -> Formula.And (a, b)) (go (depth - 1)) (go (depth - 1)));
          (2, map2 (fun a b -> Formula.Or (a, b)) (go (depth - 1)) (go (depth - 1)));
          (1, map (fun a -> Formula.Not a) (go (depth - 1)));
          (1, map2 (fun v a -> Formula.Exists ([ v ], a)) var (go (depth - 1)));
          (1, map2 (fun v a -> Formula.Forall ([ v ], a)) var (go (depth - 1)));
        ]
  in
  go 3

let random_structure rng =
  let v = Vocab.make ~rels:[ ("E", 2); ("M", 1) ] ~consts:[] in
  let n = 3 + Random.State.int rng 3 in
  let st = ref (Structure.create ~size:n v) in
  for _ = 1 to n * 2 do
    st := Structure.add_tuple !st "E"
        [| Random.State.int rng n; Random.State.int rng n |];
    st := Structure.add_tuple !st "M" [| Random.State.int rng n |]
  done;
  !st

let eval_law name ~count law =
  QCheck.Test.make ~name ~count
    (QCheck.make gen_formula ~print:(fun f -> Formula.to_string f))
    (fun f ->
      let rng = Random.State.make [| Hashtbl.hash (Formula.to_string f) |] in
      let st = random_structure rng in
      let env = [ ("x", 0); ("y", 1); ("z", 2) ] in
      law st env f)

let de_morgan =
  eval_law "eval: De Morgan" ~count:300 (fun st env f ->
      match f with
      | Formula.And (a, b) ->
          Eval.holds st ~env (Formula.Not (Formula.And (a, b)))
          = Eval.holds st ~env
              (Formula.Or (Formula.Not a, Formula.Not b))
      | _ ->
          Eval.holds st ~env (Formula.Not (Formula.Not f))
          = Eval.holds st ~env f)

let quantifier_duality =
  eval_law "eval: quantifier duality" ~count:300 (fun st env f ->
      Eval.holds st ~env (Formula.Not (Formula.Exists ([ "x" ], f)))
      = Eval.holds st ~env (Formula.Forall ([ "x" ], Formula.Not f)))

let implies_definition =
  eval_law "eval: implies = not-or" ~count:300 (fun st env f ->
      Eval.holds st ~env (Formula.Implies (f, f))
      && Eval.holds st ~env (Formula.Implies (Formula.False, f))
      && Eval.holds st ~env (Formula.Iff (f, f)))

let define_consistent =
  QCheck.Test.make ~name:"define agrees with holds" ~count:150
    (QCheck.make gen_formula ~print:Formula.to_string)
    (fun f ->
      let rng = Random.State.make [| Hashtbl.hash (Formula.to_string f) * 7 |] in
      let st = random_structure rng in
      let n = Structure.size st in
      let r = Eval.define st ~vars:[ "x"; "y"; "z" ] f in
      let ok = ref true in
      for x = 0 to n - 1 do
        for y = 0 to n - 1 do
          for z = 0 to n - 1 do
            let direct =
              Eval.holds st ~env:[ ("x", x); ("y", y); ("z", z) ] f
            in
            if direct <> Relation.mem r [| x; y; z |] then ok := false
          done
        done
      done;
      !ok)

(* --- reference interpreter ------------------------------------------------ *)

(* an independent, direct implementation of the FO semantics (assoc-list
   environments, no compilation): the compiled evaluator must agree with
   it on everything *)
let rec naive_term st env : Formula.term -> int = function
  | Formula.Var x -> (
      match List.assoc_opt x env with
      | Some v -> v
      | None -> Structure.const st x)
  | Formula.Num i -> i
  | Formula.Min -> 0
  | Formula.Max -> Structure.size st - 1

and naive_eval st env (f : Formula.t) =
  match f with
  | True -> true
  | False -> false
  | Rel (name, ts) ->
      Structure.mem st name
        (Array.of_list (List.map (naive_term st env) ts))
  | Eq (a, b) -> naive_term st env a = naive_term st env b
  | Le (a, b) -> naive_term st env a <= naive_term st env b
  | Lt (a, b) -> naive_term st env a < naive_term st env b
  | Bit (a, b) ->
      let x = naive_term st env a and y = naive_term st env b in
      y < Sys.int_size && (x lsr y) land 1 = 1
  | Not g -> not (naive_eval st env g)
  | And (a, b) -> naive_eval st env a && naive_eval st env b
  | Or (a, b) -> naive_eval st env a || naive_eval st env b
  | Implies (a, b) -> (not (naive_eval st env a)) || naive_eval st env b
  | Iff (a, b) -> naive_eval st env a = naive_eval st env b
  | Exists (vs, g) -> naive_quant st env vs g List.exists
  | Forall (vs, g) -> naive_quant st env vs g List.for_all

and naive_quant : 'a. Structure.t -> (string * int) list -> string list ->
    Formula.t -> (((int list -> bool) -> int list list -> bool)) -> bool =
 fun st env vs g iter ->
  let n = Structure.size st in
  let rec assignments = function
    | [] -> [ [] ]
    | _ :: rest ->
        List.concat_map
          (fun tail -> List.init n (fun v -> v :: tail))
          (assignments rest)
  in
  iter
    (fun vals -> naive_eval st (List.combine vs vals @ env) g)
    (assignments vs)

let compiled_vs_naive =
  QCheck.Test.make ~name:"compiled evaluator == reference interpreter"
    ~count:400
    (QCheck.make gen_formula ~print:(fun f -> Formula.to_string f))
    (fun f ->
      let rng = Random.State.make [| Hashtbl.hash (Formula.to_string f) + 11 |] in
      let st = random_structure rng in
      let env = [ ("x", 0); ("y", 1); ("z", 2) ] in
      Eval.holds st ~env f = naive_eval st env f)

(* --- bounded semantic equivalence ---------------------------------------- *)

let test_equiv_enumeration_counts () =
  (* one unary relation, no constants: 2^1 + 2^2 + 2^3 structures *)
  let v = Vocab.make ~rels:[ ("M", 1) ] ~consts:[] in
  check ti "structure count" (2 + 4 + 8)
    (Seq.length (Equiv.structures ~max_size:3 v))

let test_equiv_laws () =
  let v = Vocab.make ~rels:[ ("E", 2) ] ~consts:[] in
  let f = Parser.parse "ex x (all y (E(x, y)))" in
  check tb "double negation" true
    (Equiv.equivalent ~max_size:3 v f (Formula.Not (Formula.Not f)));
  check tb "quantifier duality" true
    (Equiv.equivalent ~max_size:3 v
       (Parser.parse "~(ex x (E(x, x)))")
       (Parser.parse "all x (~E(x, x))"));
  check tb "genuinely different" false
    (Equiv.equivalent ~max_size:3 v
       (Parser.parse "ex x (E(x, x))")
       (Parser.parse "all x (E(x, x))"));
  match
    Equiv.counterexample ~max_size:3 v
      (Parser.parse "ex x (E(x, x))")
      (Parser.parse "all x (E(x, x))")
  with
  | Some st ->
      check tb "counterexample is real" true
        (Eval.holds st (Parser.parse "ex x (E(x, x))")
        <> Eval.holds st (Parser.parse "all x (E(x, x))"))
  | None -> Alcotest.fail "expected a counterexample"

let test_equiv_prenex () =
  (* prenex really is equivalence-preserving, exhaustively at size 3 *)
  let v = Vocab.make ~rels:[ ("E", 2) ] ~consts:[] in
  List.iter
    (fun src ->
      let f = Parser.parse src in
      check tb src true (Equiv.equivalent ~max_size:3 v f (Transform.prenex f)))
    [
      "ex x (E(x, x)) & all y (E(y, y))";
      "~(ex x (all y (E(x, y))))";
      "(ex x (E(x, x))) -> (ex y (E(y, y)))";
    ]

(* --- normal forms -------------------------------------------------------- *)

let test_nnf_shape () =
  let f = Parser.parse "~(E(x, y) & ex z (E(z, z) -> x = z))" in
  let g = Transform.nnf f in
  (* negations only on atoms: no Not above a connective or quantifier *)
  let rec atomic_negs_only = function
    | Formula.Not
        (Formula.Rel _ | Formula.Eq _ | Formula.Le _ | Formula.Lt _
        | Formula.Bit _ | Formula.True | Formula.False) ->
        true
    | Formula.Not _ -> false
    | Formula.True | Formula.False | Formula.Rel _ | Formula.Eq _
    | Formula.Le _ | Formula.Lt _ | Formula.Bit _ ->
        true
    | Formula.And (a, b) | Formula.Or (a, b) ->
        atomic_negs_only a && atomic_negs_only b
    | Formula.Implies _ | Formula.Iff _ -> false
    | Formula.Exists (_, a) | Formula.Forall (_, a) -> atomic_negs_only a
  in
  check tb "NNF shape" true (atomic_negs_only g)

let test_prenex_shape () =
  let f = Parser.parse "all x (E(x, x)) & ex y (~all z (E(y, z)))" in
  let p = Transform.prenex f in
  check tb "matrix quantifier-free" true
    (Transform.is_quantifier_free (Transform.matrix p));
  check ti "three quantifiers" 3 (List.length (Transform.prefix p))

let prenex_rank_monotone =
  QCheck.Test.make ~name:"prenex never lowers quantifier rank" ~count:300
    (QCheck.make gen_formula ~print:(fun f -> Formula.to_string f))
    (fun f ->
      Formula.quantifier_rank (Transform.prenex f)
      >= Formula.quantifier_rank f)

let nnf_preserves_semantics =
  QCheck.Test.make ~name:"nnf/prenex preserve semantics" ~count:300
    (QCheck.make gen_formula ~print:(fun f -> Formula.to_string f))
    (fun f ->
      let rng = Random.State.make [| Hashtbl.hash (Formula.to_string f) + 3 |] in
      let st = random_structure rng in
      let env = [ ("x", 0); ("y", 1); ("z", 2) ] in
      let reference = Eval.holds st ~env f in
      Eval.holds st ~env (Transform.nnf f) = reference
      && Eval.holds st ~env (Transform.prenex f) = reference)

(* --- evaluator corner cases -------------------------------------------- *)

let test_eval_numeric () =
  let v = Vocab.make ~rels:[] ~consts:[ "c" ] in
  let st = Structure.with_const (Structure.create ~size:8 v) "c" 5 in
  let t f = Eval.holds st (Parser.parse f) in
  check tb "min" true (t "min < max");
  check tb "max" true (t "max = 7");
  check tb "const" true (t "c = 5");
  check tb "BIT 5=101" true (t "BIT(c, 0) & ~BIT(c, 1) & BIT(c, 2)");
  check tb "le" true (t "all x (min <= x & x <= max)")

let test_eval_unbound () =
  let v = Vocab.make ~rels:[ ("E", 2) ] ~consts:[] in
  let st = Structure.create ~size:3 v in
  Alcotest.check_raises "unbound" (Eval.Unbound_variable "nope") (fun () ->
      ignore (Eval.holds st (Parser.parse "E(nope, nope)")))

let test_eval_unknown_relation () =
  (* same message shape as Vocab.Unknown_symbol *)
  let v = Vocab.make ~rels:[ ("E", 2) ] ~consts:[ "s" ] in
  let st = Structure.create ~size:3 v in
  Alcotest.check_raises "unknown relation"
    (Eval.Unknown_relation
       "unknown relation symbol \"G\" in vocabulary <E^2, s>") (fun () ->
      ignore (Eval.holds st (Parser.parse "ex x (G(x, x))")))

let test_eval_arity_error () =
  let v = Vocab.make ~rels:[ ("E", 2) ] ~consts:[] in
  let st = Structure.create ~size:3 v in
  Alcotest.check_raises "arity"
    (Eval.Arity_error "E expects 2 arguments, got 1") (fun () ->
      ignore (Eval.holds st (Parser.parse "ex x (E(x))")))

let test_eval_work_counter () =
  (* [~E(x, y)] holds everywhere on the empty relation, so the [all]
     evaluates all 16 atoms, charged to the caller's counter only *)
  let v = Vocab.make ~rels:[ ("E", 2) ] ~consts:[] in
  let st = Structure.create ~size:4 v in
  let f = Parser.parse "all x y (~E(x, y))" in
  let work = ref 0 in
  ignore (Eval.holds ~work st f);
  check ti "counted" 16 !work;
  ignore (Eval.holds st f);
  check ti "other calls charge their own counter" 16 !work;
  (* a tester's atoms reach the caller of each test, once *)
  let c =
    Eval.compile_tester st ~vars:[ "x" ] (Parser.parse "all y (~E(x, y))")
  in
  ignore (Eval.test_compiled c [| 0 |]);
  let w = ref 0 in
  ignore (Eval.test_compiled ~work:w c [| 1 |]);
  check ti "tester drains per test" 4 !w

let test_parser_errors () =
  List.iter
    (fun src ->
      match Parser.parse src with
      | exception Parser.Parse_error _ -> ()
      | _ -> Alcotest.failf "%S should not parse" src)
    [ "E(x,"; "x ="; "ex (P(x))"; "& x = y"; "E(x) E(y)"; "x + y" ]

let test_parser_zero_arity () =
  match Parser.parse "b()" with
  | Formula.Rel ("b", []) -> ()
  | _ -> Alcotest.fail "b() should parse as 0-ary atom"

let () =
  Alcotest.run "logic"
    [
      ( "tuple",
        [
          Alcotest.test_case "encode/decode" `Quick test_tuple_encode_decode;
          Alcotest.test_case "encode range" `Quick test_tuple_encode_range;
          Alcotest.test_case "order" `Quick test_tuple_order;
          Alcotest.test_case "hash" `Quick test_tuple_hash;
          QCheck_alcotest.to_alcotest tuple_hash_qcheck;
          QCheck_alcotest.to_alcotest tuple_qcheck;
        ] );
      ( "relation",
        [
          Alcotest.test_case "basics" `Quick test_relation_basics;
          Alcotest.test_case "algebra" `Quick test_relation_algebra;
          Alcotest.test_case "symmetric closure" `Quick test_relation_symmetric;
          QCheck_alcotest.to_alcotest relation_qcheck;
        ] );
      ( "structure",
        [
          Alcotest.test_case "vocab" `Quick test_vocab;
          Alcotest.test_case "vocab unknown symbol" `Quick
            test_vocab_unknown_symbol;
          Alcotest.test_case "vocab union" `Quick test_vocab_union;
          Alcotest.test_case "structure ops" `Quick test_structure;
          Alcotest.test_case "restrict" `Quick test_structure_restrict;
        ] );
      ( "formula",
        [
          Alcotest.test_case "free vars" `Quick test_free_vars;
          Alcotest.test_case "qdepth/size" `Quick test_qdepth_size;
          Alcotest.test_case "quantifier rank" `Quick test_quantifier_rank;
          Alcotest.test_case "alternation depth" `Quick
            test_alternation_depth;
          Alcotest.test_case "width and rel_atoms" `Quick
            test_width_rel_atoms;
          Alcotest.test_case "capture-avoiding subst" `Quick test_subst_capture;
          Alcotest.test_case "substitute_rel" `Quick test_substitute_rel;
          Alcotest.test_case "pp/parse roundtrip" `Quick test_pp_parse_roundtrip;
        ] );
      ( "reference-interpreter",
        [ QCheck_alcotest.to_alcotest compiled_vs_naive ] );
      ( "equiv",
        [
          Alcotest.test_case "enumeration counts" `Quick
            test_equiv_enumeration_counts;
          Alcotest.test_case "laws and counterexamples" `Quick test_equiv_laws;
          Alcotest.test_case "prenex exhaustively" `Slow test_equiv_prenex;
        ] );
      ( "transform",
        [
          Alcotest.test_case "NNF shape" `Quick test_nnf_shape;
          Alcotest.test_case "prenex shape" `Quick test_prenex_shape;
          Alcotest.test_case "prenex preserves rank (linear)" `Quick
            test_prenex_rank_linear;
          QCheck_alcotest.to_alcotest prenex_rank_monotone;
          QCheck_alcotest.to_alcotest nnf_preserves_semantics;
        ] );
      ( "eval",
        [
          Alcotest.test_case "numeric predicates" `Quick test_eval_numeric;
          Alcotest.test_case "unbound variable" `Quick test_eval_unbound;
          Alcotest.test_case "unknown relation" `Quick
            test_eval_unknown_relation;
          Alcotest.test_case "arity error" `Quick test_eval_arity_error;
          Alcotest.test_case "work counter" `Quick test_eval_work_counter;
          QCheck_alcotest.to_alcotest de_morgan;
          QCheck_alcotest.to_alcotest quantifier_duality;
          QCheck_alcotest.to_alcotest implies_definition;
          QCheck_alcotest.to_alcotest define_consistent;
        ] );
      ( "parser",
        [
          Alcotest.test_case "reject malformed" `Quick test_parser_errors;
          Alcotest.test_case "zero-arity atom" `Quick test_parser_zero_arity;
          QCheck_alcotest.to_alcotest parse_roundtrip_qcheck;
        ] );
    ]
