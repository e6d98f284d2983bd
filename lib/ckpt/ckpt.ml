let magic = "ROFSCKPT"
let format_version = 1

(* Standard CRC-32 (IEEE), table-driven, computed over OCaml ints (the
   word is 63-bit, so the 32-bit value always fits non-negative).
   Slicing-by-8: table [k] (entries [256k .. 256k + 255]) advances a
   byte's contribution past [k] further zero bytes, so one step folds
   eight input bytes with eight lookups; table 0 is the classic
   bytewise table, which finishes the tail. *)
let crc_tables =
  lazy
    (let t = Array.make (8 * 256) 0 in
     for n = 0 to 255 do
       let c = ref n in
       for _ = 0 to 7 do
         c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
       done;
       t.(n) <- !c
     done;
     for k = 1 to 7 do
       for n = 0 to 255 do
         let prev = t.(((k - 1) * 256) + n) in
         t.((k * 256) + n) <- (prev lsr 8) lxor t.(prev land 0xff)
       done
     done;
     t)

(* Every index below is masked to a byte within its table. *)
let crc32_update crc s =
  let t = Lazy.force crc_tables in
  let n = String.length s in
  let crc = ref crc and i = ref 0 in
  while !i + 8 <= n do
    let p = !i and c = !crc in
    crc :=
      Array.unsafe_get t
        (0x700 + ((c lxor Char.code (String.unsafe_get s p)) land 0xff))
      lxor Array.unsafe_get t
             (0x600 + (((c lsr 8) lxor Char.code (String.unsafe_get s (p + 1))) land 0xff))
      lxor Array.unsafe_get t
             (0x500 + (((c lsr 16) lxor Char.code (String.unsafe_get s (p + 2))) land 0xff))
      lxor Array.unsafe_get t
             (0x400 + (((c lsr 24) lxor Char.code (String.unsafe_get s (p + 3))) land 0xff))
      lxor Array.unsafe_get t (0x300 + Char.code (String.unsafe_get s (p + 4)))
      lxor Array.unsafe_get t (0x200 + Char.code (String.unsafe_get s (p + 5)))
      lxor Array.unsafe_get t (0x100 + Char.code (String.unsafe_get s (p + 6)))
      lxor Array.unsafe_get t (Char.code (String.unsafe_get s (p + 7)));
    i := p + 8
  done;
  for p = !i to n - 1 do
    crc := Array.unsafe_get t ((!crc lxor Char.code (String.unsafe_get s p)) land 0xff) lxor (!crc lsr 8)
  done;
  !crc

let crc32 s = crc32_update 0xFFFFFFFF s lxor 0xFFFFFFFF

(* The per-section checksum covers the name bytes too, so a flipped bit
   anywhere in a section — not just its payload — fails the check. *)
let section_crc name payload =
  crc32_update (crc32_update 0xFFFFFFFF name) payload lxor 0xFFFFFFFF

(* ------------------------------------------------------------------ *)
(* Encoding                                                            *)

let add_u16 buf v =
  Buffer.add_char buf (Char.chr (v land 0xff));
  Buffer.add_char buf (Char.chr ((v lsr 8) land 0xff))

let add_u32 buf v =
  Buffer.add_char buf (Char.chr (v land 0xff));
  Buffer.add_char buf (Char.chr ((v lsr 8) land 0xff));
  Buffer.add_char buf (Char.chr ((v lsr 16) land 0xff));
  Buffer.add_char buf (Char.chr ((v lsr 24) land 0xff))

let encode sections =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf magic;
  add_u32 buf format_version;
  add_u32 buf (List.length sections);
  List.iter
    (fun (name, payload) ->
      if String.length name > 0xffff then
        invalid_arg "Ckpt.encode: section name too long";
      add_u16 buf (String.length name);
      Buffer.add_string buf name;
      add_u32 buf (String.length payload);
      add_u32 buf (section_crc name payload);
      Buffer.add_string buf payload)
    sections;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Decoding: every malformation is a one-line [Error], never a raise.  *)

exception Bad of string

let read_u16 s pos =
  if !pos + 2 > String.length s then raise (Bad "truncated section header");
  let v = Char.code s.[!pos] lor (Char.code s.[!pos + 1] lsl 8) in
  pos := !pos + 2;
  v

let read_u32 s pos =
  if !pos + 4 > String.length s then raise (Bad "truncated section header");
  let v =
    Char.code s.[!pos]
    lor (Char.code s.[!pos + 1] lsl 8)
    lor (Char.code s.[!pos + 2] lsl 16)
    lor (Char.code s.[!pos + 3] lsl 24)
  in
  pos := !pos + 4;
  v

let decode s =
  try
    if String.length s < String.length magic + 8 then raise (Bad "truncated header");
    if String.sub s 0 (String.length magic) <> magic then raise (Bad "bad magic");
    let pos = ref (String.length magic) in
    let version = read_u32 s pos in
    if version <> format_version then
      raise (Bad (Printf.sprintf "unsupported version %d" version));
    let count = read_u32 s pos in
    let sections = ref [] in
    for _ = 1 to count do
      let name_len = read_u16 s pos in
      if !pos + name_len > String.length s then raise (Bad "truncated section name");
      let name = String.sub s !pos name_len in
      pos := !pos + name_len;
      let payload_len = read_u32 s pos in
      let expected_crc = read_u32 s pos in
      if !pos + payload_len > String.length s then
        raise (Bad (Printf.sprintf "truncated section %S" name));
      let payload = String.sub s !pos payload_len in
      pos := !pos + payload_len;
      if section_crc name payload <> expected_crc then
        raise (Bad (Printf.sprintf "section %S CRC mismatch" name));
      sections := (name, payload) :: !sections
    done;
    if !pos <> String.length s then raise (Bad "trailing bytes");
    Ok (List.rev !sections)
  with Bad msg -> Error ("snapshot: " ^ msg)

(* ------------------------------------------------------------------ *)
(* Atomic file commit                                                  *)

let atomic_write path f =
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  (try
     Fun.protect ~finally:(fun () -> close_out oc) (fun () -> f oc)
   with e ->
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e);
  Sys.rename tmp path

let save_file path sections = atomic_write path (fun oc -> output_string oc (encode sections))

let read_all ic =
  let buf = Buffer.create 65536 in
  let chunk = Bytes.create 65536 in
  let rec go () =
    let n = input ic chunk 0 (Bytes.length chunk) in
    if n > 0 then begin
      Buffer.add_subbytes buf chunk 0 n;
      go ()
    end
  in
  go ();
  Buffer.contents buf

let load_file path =
  match open_in_bin path with
  | exception Sys_error msg -> Error ("snapshot: " ^ msg)
  | ic -> (
      match Fun.protect ~finally:(fun () -> close_in ic) (fun () -> read_all ic) with
      | exception Sys_error msg -> Error ("snapshot: " ^ msg)
      | data -> decode data)
