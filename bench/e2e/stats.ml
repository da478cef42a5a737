(* Order statistics over raw samples (no histogram bucketing, so every
   reported value is a measured one). *)

(* Nearest-rank quantile [q] of an ascending array; 0 on no samples. *)
let rank sorted q =
  let n = Array.length sorted in
  if n = 0 then 0
  else sorted.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))

let sorted a =
  let c = Array.copy a in
  Array.sort compare c;
  c

let quantile a q = rank (sorted a) q

(* Quartiles exactly as Python's [statistics.quantiles(values, n=4)]
   (the default "exclusive" method), so a compare here agrees with any
   other tool reading the same samples. *)
let quartiles values =
  let d = Array.of_list values in
  Array.sort compare d;
  let ld = Array.length d in
  if ld = 0 then invalid_arg "Stats.quartiles: no samples"
  else if ld = 1 then (d.(0), d.(0), d.(0))
  else begin
    let m = ld + 1 in
    let q i =
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((d.(j - 1) *. float_of_int (4 - delta)) +. (d.(j) *. float_of_int delta)) /. 4.
    in
    (q 1, q 2, q 3)
  end
