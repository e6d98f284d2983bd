type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list
  | Raw of string

(* ------------------------------------------------------------------ *)
(* Printing                                                            *)

let escape buffer s =
  Buffer.add_char buffer '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buffer "\\\""
      | '\\' -> Buffer.add_string buffer "\\\\"
      | '\n' -> Buffer.add_string buffer "\\n"
      | '\r' -> Buffer.add_string buffer "\\r"
      | '\t' -> Buffer.add_string buffer "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string buffer (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buffer c)
    s;
  Buffer.add_char buffer '"'

(* [Printf.sprintf "%.12g"] ends in this primitive with this format;
   calling it directly skips the format interpreter, same bytes. *)
external format_float : string -> float -> string = "caml_format_float"

let add_float buffer f =
  if Float.is_finite f then begin
    let s = format_float "%.12g" f in
    Buffer.add_string buffer s;
    (* "1e+06"-style output is a valid JSON number; bare "1" is too,
       but keep integral floats recognizably float-typed. *)
    if String.for_all (function '0' .. '9' | '-' -> true | _ -> false) s then
      Buffer.add_string buffer ".0"
  end
  else Buffer.add_string buffer "null"

let rec emit buffer = function
  | Null -> Buffer.add_string buffer "null"
  | Bool b -> Buffer.add_string buffer (if b then "true" else "false")
  | Int i -> Buffer.add_string buffer (string_of_int i)
  | Float f -> add_float buffer f
  | Raw s -> Buffer.add_string buffer s
  | Str s -> escape buffer s
  | Arr items ->
      Buffer.add_char buffer '[';
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_char buffer ',';
          emit buffer item)
        items;
      Buffer.add_char buffer ']'
  | Obj fields ->
      Buffer.add_char buffer '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buffer ',';
          escape buffer k;
          Buffer.add_char buffer ':';
          emit buffer v)
        fields;
      Buffer.add_char buffer '}'

let to_string v =
  let buffer = Buffer.create 256 in
  emit buffer v;
  Buffer.contents buffer

let to_channel oc v =
  let buffer = Buffer.create 256 in
  emit buffer v;
  Buffer.output_buffer oc buffer

(* ------------------------------------------------------------------ *)
(* Parsing                                                             *)

exception Parse_error of int * string

let parse input =
  let n = String.length input in
  let pos = ref 0 in
  let error msg = raise (Parse_error (!pos, msg)) in
  let peek () = if !pos < n then Some input.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some got when got = c -> advance ()
    | _ -> error (Printf.sprintf "expected %c" c)
  in
  let literal word value =
    if !pos + String.length word <= n && String.sub input !pos (String.length word) = word
    then begin
      pos := !pos + String.length word;
      value
    end
    else error (Printf.sprintf "expected %s" word)
  in
  let parse_string () =
    expect '"';
    let buffer = Buffer.create 16 in
    let rec go () =
      if !pos >= n then error "unterminated string";
      let c = input.[!pos] in
      advance ();
      match c with
      | '"' -> Buffer.contents buffer
      | '\\' -> begin
          if !pos >= n then error "unterminated escape";
          let e = input.[!pos] in
          advance ();
          (match e with
          | '"' -> Buffer.add_char buffer '"'
          | '\\' -> Buffer.add_char buffer '\\'
          | '/' -> Buffer.add_char buffer '/'
          | 'n' -> Buffer.add_char buffer '\n'
          | 't' -> Buffer.add_char buffer '\t'
          | 'r' -> Buffer.add_char buffer '\r'
          | 'b' -> Buffer.add_char buffer '\b'
          | 'f' -> Buffer.add_char buffer '\012'
          | 'u' ->
              if !pos + 4 > n then error "truncated \\u escape";
              let hex = String.sub input !pos 4 in
              pos := !pos + 4;
              let code =
                try int_of_string ("0x" ^ hex) with Failure _ -> error "bad \\u escape"
              in
              (* Minimal UTF-8 encoding; surrogate pairs are passed
                 through as two 3-byte sequences (WTF-8), which is fine
                 for validation purposes. *)
              if code < 0x80 then Buffer.add_char buffer (Char.chr code)
              else if code < 0x800 then begin
                Buffer.add_char buffer (Char.chr (0xC0 lor (code lsr 6)));
                Buffer.add_char buffer (Char.chr (0x80 lor (code land 0x3F)))
              end
              else begin
                Buffer.add_char buffer (Char.chr (0xE0 lor (code lsr 12)));
                Buffer.add_char buffer (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
                Buffer.add_char buffer (Char.chr (0x80 lor (code land 0x3F)))
              end
          | _ -> error "unknown escape");
          go ()
        end
      | c -> begin
          Buffer.add_char buffer c;
          go ()
        end
    in
    go ()
  in
  let parse_number () =
    let start = !pos in
    let number_char = function
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while !pos < n && number_char input.[!pos] do
      advance ()
    done;
    let s = String.sub input start (!pos - start) in
    if String.contains s '.' || String.contains s 'e' || String.contains s 'E' then begin
      match float_of_string_opt s with
      | Some f -> Float f
      | None -> error "bad number"
    end
    else begin
      match int_of_string_opt s with
      | Some i -> Int i
      | None -> ( match float_of_string_opt s with Some f -> Float f | None -> error "bad number")
    end
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> error "unexpected end of input"
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else begin
          let rec fields acc =
            skip_ws ();
            let key = parse_string () in
            skip_ws ();
            expect ':';
            let value = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                fields ((key, value) :: acc)
            | Some '}' ->
                advance ();
                List.rev ((key, value) :: acc)
            | _ -> error "expected , or }"
          in
          Obj (fields [])
        end
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          Arr []
        end
        else begin
          let rec items acc =
            let value = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                items (value :: acc)
            | Some ']' ->
                advance ();
                List.rev (value :: acc)
            | _ -> error "expected , or ]"
          in
          Arr (items [])
        end
    | Some '"' -> Str (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> parse_number ()
  in
  match
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then error "trailing input";
    v
  with
  | v -> Ok v
  | exception Parse_error (at, msg) -> Error (Printf.sprintf "offset %d: %s" at msg)

(* ------------------------------------------------------------------ *)
(* Access                                                              *)

let member key = function Obj fields -> List.assoc_opt key fields | _ -> None
let keys = function Obj fields -> List.map fst fields | _ -> []
let float_value = function Int i -> Some (float_of_int i) | Float f -> Some f | _ -> None
