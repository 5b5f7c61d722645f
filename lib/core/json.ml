(* Minimal JSON: just enough for the serving layer's newline-delimited
   wire protocol, the analyzers' [--json] reports and the bench/CI
   tooling that reads both. No dependency — the build image has no JSON
   library, and these formats need only objects, arrays, strings, ints,
   floats, bools and null. The parser is a plain recursive descent over
   the string; printing always escapes control characters, so
   [to_string] output never contains a raw newline — a printed value is
   always a valid single wire line. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

(* --- printing -------------------------------------------------------------- *)

let escape_to buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\b' -> Buffer.add_string buf "\\b"
      | '\012' -> Buffer.add_string buf "\\f"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let rec print_to buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f ->
      if Float.is_finite f then (
        let s = Printf.sprintf "%.12g" f in
        Buffer.add_string buf s;
        (* keep it a JSON number that round-trips as Float *)
        if
          not
            (String.exists (fun c -> c = '.' || c = 'e' || c = 'E') s)
        then Buffer.add_string buf ".0")
      else Buffer.add_string buf "null"
  | Str s -> escape_to buf s
  | List l ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_char buf ',';
          print_to buf v)
        l;
      Buffer.add_char buf ']'
  | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          escape_to buf k;
          Buffer.add_char buf ':';
          print_to buf v)
        fields;
      Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 128 in
  print_to buf v;
  Buffer.contents buf

(* --- parsing --------------------------------------------------------------- *)

exception Bad of string * int

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let fail msg = raise (Bad (msg, !pos)) in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected %c" c)
  in
  let literal word v =
    String.iter (fun c -> expect c) word;
    v
  in
  let hex4 () =
    let v = ref 0 in
    for _ = 1 to 4 do
      let d =
        match peek () with
        | Some c when c >= '0' && c <= '9' -> Char.code c - Char.code '0'
        | Some c when c >= 'a' && c <= 'f' -> Char.code c - Char.code 'a' + 10
        | Some c when c >= 'A' && c <= 'F' -> Char.code c - Char.code 'A' + 10
        | _ -> fail "expected hex digit"
      in
      advance ();
      v := (!v * 16) + d
    done;
    !v
  in
  let add_utf8 buf cp =
    (* surrogate pairs are decoded by the caller; [cp] is a scalar value *)
    if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
    else if cp < 0x800 then (
      Buffer.add_char buf (Char.chr (0xc0 lor (cp lsr 6)));
      Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3f))))
    else if cp < 0x10000 then (
      Buffer.add_char buf (Char.chr (0xe0 lor (cp lsr 12)));
      Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3f)));
      Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3f))))
    else (
      Buffer.add_char buf (Char.chr (0xf0 lor (cp lsr 18)));
      Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 12) land 0x3f)));
      Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3f)));
      Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3f))))
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' -> (
          advance ();
          match peek () with
          | Some '"' ->
              advance ();
              Buffer.add_char buf '"';
              go ()
          | Some '\\' ->
              advance ();
              Buffer.add_char buf '\\';
              go ()
          | Some '/' ->
              advance ();
              Buffer.add_char buf '/';
              go ()
          | Some 'n' ->
              advance ();
              Buffer.add_char buf '\n';
              go ()
          | Some 'r' ->
              advance ();
              Buffer.add_char buf '\r';
              go ()
          | Some 't' ->
              advance ();
              Buffer.add_char buf '\t';
              go ()
          | Some 'b' ->
              advance ();
              Buffer.add_char buf '\b';
              go ()
          | Some 'f' ->
              advance ();
              Buffer.add_char buf '\012';
              go ()
          | Some 'u' ->
              advance ();
              let cp = hex4 () in
              let cp =
                if cp >= 0xd800 && cp <= 0xdbff then (
                  (* high surrogate: the low half must follow *)
                  expect '\\';
                  expect 'u';
                  let lo = hex4 () in
                  if lo < 0xdc00 || lo > 0xdfff then
                    fail "invalid low surrogate"
                  else
                    0x10000 + ((cp - 0xd800) lsl 10) + (lo - 0xdc00))
                else if cp >= 0xdc00 && cp <= 0xdfff then
                  fail "stray low surrogate"
                else cp
              in
              add_utf8 buf cp;
              go ()
          | _ -> fail "bad escape")
      | Some c when Char.code c < 0x20 -> fail "raw control char in string"
      | Some c ->
          advance ();
          Buffer.add_char buf c;
          go ()
    in
    go ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    let is_float = ref false in
    if peek () = Some '-' then advance ();
    let digits () =
      let had = ref false in
      let rec go () =
        match peek () with
        | Some c when c >= '0' && c <= '9' ->
            had := true;
            advance ();
            go ()
        | _ -> ()
      in
      go ();
      if not !had then fail "expected digit"
    in
    digits ();
    (match peek () with
    | Some '.' ->
        is_float := true;
        advance ();
        digits ()
    | _ -> ());
    (match peek () with
    | Some ('e' | 'E') ->
        is_float := true;
        advance ();
        (match peek () with
        | Some ('+' | '-') -> advance ()
        | _ -> ());
        digits ()
    | _ -> ());
    let text = String.sub s start (!pos - start) in
    if !is_float then Float (float_of_string text)
    else
      match int_of_string_opt text with
      | Some i -> Int i
      | None -> Float (float_of_string text)
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some 'n' -> literal "null" Null
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some '"' -> Str (parse_string ())
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then (
          advance ();
          List [])
        else
          let rec items acc =
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                items (v :: acc)
            | Some ']' ->
                advance ();
                List.rev (v :: acc)
            | _ -> fail "expected , or ]"
          in
          List (items [])
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then (
          advance ();
          Obj [])
        else
          let field () =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            (k, v)
          in
          let rec fields acc =
            let kv = field () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                fields (kv :: acc)
            | Some '}' ->
                advance ();
                List.rev (kv :: acc)
            | _ -> fail "expected , or }"
          in
          Obj (fields [])
    | Some ('-' | '0' .. '9') -> parse_number ()
    | Some c -> fail (Printf.sprintf "unexpected character %C" c)
  in
  match
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then fail "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Bad (msg, p) ->
      Error (Printf.sprintf "JSON parse error at offset %d: %s" p msg)

(* --- accessors ------------------------------------------------------------- *)

let member k = function Obj fields -> List.assoc_opt k fields | _ -> None
let to_str = function Str s -> Some s | _ -> None
let to_int = function Int i -> Some i | _ -> None

let to_float = function
  | Float f -> Some f
  | Int i -> Some (float_of_int i)
  | _ -> None

let to_bool = function Bool b -> Some b | _ -> None
let to_list = function List l -> Some l | _ -> None
