let kib = 1024
let mib = 1024 * kib
let gib = 1024 * mib

let pp_scaled ppf value unit_bytes suffix =
  let scaled = float_of_int value /. float_of_int unit_bytes in
  if Float.is_integer scaled then Format.fprintf ppf "%.0f%s" scaled suffix
  else Format.fprintf ppf "%.1f%s" scaled suffix

let rec pp_bytes ppf n =
  if n < 0 then Format.fprintf ppf "-%a" pp_bytes (-n)
  else if n >= gib then pp_scaled ppf n gib "G"
  else if n >= mib then pp_scaled ppf n mib "M"
  else if n >= kib then pp_scaled ppf n kib "K"
  else Format.fprintf ppf "%d" n

let to_string n = Format.asprintf "%a" pp_bytes n
