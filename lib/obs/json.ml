(* The one JSON value, its strict parser and its printer (see json.mli). *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Fixed of int * float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

let int i = Num (float_of_int i)
let list f l = Arr (List.map f l)
let option f = function None -> Null | Some x -> f x

(* --- parsing --- *)

exception Parse_error of int * string

let is_digit c = c >= '0' && c <= '9'

let parse_exn s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (!pos, msg)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while
      !pos < n
      && match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
    do
      advance ()
    done
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Fmt.str "expected %C" c)
  in
  let literal word v =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      v
    end
    else fail (Fmt.str "expected %s" word)
  in
  let hex_digit () =
    let d =
      match peek () with
      | Some ('0' .. '9' as c) -> Char.code c - Char.code '0'
      | Some ('a' .. 'f' as c) -> Char.code c - Char.code 'a' + 10
      | Some ('A' .. 'F' as c) -> Char.code c - Char.code 'A' + 10
      | _ -> fail "bad \\u escape"
    in
    advance ();
    d
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      match s.[!pos] with
      | '"' -> advance ()
      | '\\' ->
          advance ();
          (if !pos >= n then fail "unterminated escape";
           match s.[!pos] with
           | '"' -> Buffer.add_char b '"'; advance ()
           | '\\' -> Buffer.add_char b '\\'; advance ()
           | '/' -> Buffer.add_char b '/'; advance ()
           | 'b' -> Buffer.add_char b '\b'; advance ()
           | 'f' -> Buffer.add_char b '\012'; advance ()
           | 'n' -> Buffer.add_char b '\n'; advance ()
           | 'r' -> Buffer.add_char b '\r'; advance ()
           | 't' -> Buffer.add_char b '\t'; advance ()
           | 'u' ->
               advance ();
               let code = ref 0 in
               for _ = 1 to 4 do
                 code := (!code lsl 4) lor hex_digit ()
               done;
               let code = !code in
               (* Encode the code point as UTF-8; surrogate pairs are not
                  recombined (the protocol carries ASCII identifiers). *)
               if code < 0x80 then Buffer.add_char b (Char.chr code)
               else if code < 0x800 then begin
                 Buffer.add_char b (Char.chr (0xC0 lor (code lsr 6)));
                 Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
               end
               else begin
                 Buffer.add_char b (Char.chr (0xE0 lor (code lsr 12)));
                 Buffer.add_char b
                   (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
                 Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
               end
           | c -> fail (Fmt.str "bad escape \\%C" c));
          go ()
      | c when Char.code c < 0x20 -> fail "raw control character in string"
      | c -> Buffer.add_char b c; advance (); go ()
    in
    go ();
    Buffer.contents b
  in
  (* The RFC 8259 grammar: optional minus, then 0 or a digit run without a
     leading zero, optional fraction, optional exponent; and finite. *)
  let parse_number () =
    let start = !pos in
    let digits () =
      if not (!pos < n && is_digit s.[!pos]) then fail "bad number";
      while !pos < n && is_digit s.[!pos] do
        advance ()
      done
    in
    if peek () = Some '-' then advance ();
    (match peek () with
    | Some '0' -> advance ()
    | _ -> digits ());
    if peek () = Some '.' then begin advance (); digits () end;
    (match peek () with
    | Some ('e' | 'E') ->
        advance ();
        (match peek () with Some ('+' | '-') -> advance () | _ -> ());
        digits ()
    | _ -> ());
    let f = float_of_string (String.sub s start (!pos - start)) in
    if not (Float.is_finite f) then fail "number out of range";
    f
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '"' -> Str (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin advance (); Arr [] end
        else begin
          let items = ref [ parse_value () ] in
          skip_ws ();
          while peek () = Some ',' do
            advance ();
            items := parse_value () :: !items;
            skip_ws ()
          done;
          expect ']';
          Arr (List.rev !items)
        end
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin advance (); Obj [] end
        else begin
          let parse_member () =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            (k, v)
          in
          let items = ref [ parse_member () ] in
          skip_ws ();
          while peek () = Some ',' do
            advance ();
            items := parse_member () :: !items;
            skip_ws ()
          done;
          expect '}';
          Obj (List.rev !items)
        end
    | Some ('0' .. '9' | '-') -> Num (parse_number ())
    | Some c -> fail (Fmt.str "unexpected %C" c)
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

let parse s =
  match parse_exn s with
  | v -> Ok v
  | exception Parse_error (pos, msg) ->
      Error (Fmt.str "%s at offset %d" msg pos)

(* --- printing --- *)

let add_escaped b s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s

let escape s =
  let b = Buffer.create (String.length s) in
  add_escaped b s;
  Buffer.contents b

(* JSON has no literal for infinities or NaN. *)
let add_number b f text =
  if Float.is_finite f then Buffer.add_string b text
  else Buffer.add_string b "null"

let render ~comma ~colon v =
  let b = Buffer.create 1024 in
  let add_str s =
    Buffer.add_char b '"';
    add_escaped b s;
    Buffer.add_char b '"'
  in
  let rec go = function
    | Null -> Buffer.add_string b "null"
    | Bool x -> Buffer.add_string b (string_of_bool x)
    | Num f ->
        add_number b f
          (if Float.is_integer f && Float.abs f < 1e15 then
             Printf.sprintf "%.0f" f
           else Printf.sprintf "%.17g" f)
    | Fixed (decimals, f) -> add_number b f (Printf.sprintf "%.*f" decimals f)
    | Str s -> add_str s
    | Arr items ->
        Buffer.add_char b '[';
        List.iteri
          (fun i x ->
            if i > 0 then Buffer.add_string b comma;
            go x)
          items;
        Buffer.add_char b ']'
    | Obj members ->
        Buffer.add_char b '{';
        List.iteri
          (fun i (k, x) ->
            if i > 0 then Buffer.add_string b comma;
            add_str k;
            Buffer.add_string b colon;
            go x)
          members;
        Buffer.add_char b '}'
  in
  go v;
  Buffer.contents b

let to_compact v = render ~comma:"," ~colon:":" v
let to_string v = render ~comma:", " ~colon:": " v

(* --- accessors --- *)

let member k = function Obj m -> List.assoc_opt k m | _ -> None
let to_string_opt = function Str s -> Some s | _ -> None
let to_float_opt = function Num f | Fixed (_, f) -> Some f | _ -> None

(* Every integer up to 2^53 is exact in a double; beyond that
   [int_of_float] would return an unrelated value. *)
let to_int_opt = function
  | Num f | Fixed (_, f)
    when Float.is_integer f && Float.abs f <= 9007199254740992.0 ->
      Some (int_of_float f)
  | _ -> None

let to_bool_opt = function Bool b -> Some b | _ -> None
let to_list_opt = function Arr l -> Some l | _ -> None
