(* Order statistics over host timings and virtual-cycle samples. *)

let median xs =
  match List.sort Float.compare xs with
  | [] -> 0.0
  | sorted ->
      let a = Array.of_list sorted in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let geomean = function
  | [] -> 0.0
  | xs ->
      exp
        (List.fold_left (fun acc x -> acc +. log x) 0.0 xs
        /. float_of_int (List.length xs))

(* Nearest-rank percentile, the definition the server summaries use. *)
let percentile xs q = float_of_int (Acsi_server.Load.percentile (Array.of_list xs) q)

let ratio num den = if den = 0.0 then 0.0 else num /. den
