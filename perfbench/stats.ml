(* Sample reductions.  Every timed unit (a serve chunk, a load pass)
   reduces its own samples to quantiles; a run then reports, over its
   units, the value of the fastest twentieth: the 5th percentile of a
   time, the 95th of a rate.  On a shared host the speed the program gets
   switches between states for seconds at a time (a 2-core test host ran
   the same stream at 39k and at 28k events/s in alternating stretches), and
   interference only ever slows a unit, so the fast units are the ones that
   repeat from run to run.  A change to the program moves every unit, the
   fast ones included. *)

let quantile_sorted (a : float array) ~len q =
  if len = 0 then nan
  else
    let pos = q *. float_of_int (len - 1) in
    let lo = int_of_float pos in
    let hi = min (len - 1) (lo + 1) in
    let frac = pos -. float_of_int lo in
    a.(lo) +. (frac *. (a.(hi) -. a.(lo)))

(* Quantiles of the first [len] samples of [a]. *)
let quantiles (a : float array) ~len qs =
  let s = Array.sub a 0 len in
  Array.sort Float.compare s;
  List.map (quantile_sorted s ~len) qs

let quantile l q =
  let a = Array.of_list l in
  Array.sort Float.compare a;
  quantile_sorted a ~len:(Array.length a) q

let median l = quantile l 0.5

(* The fastest twentieth of a run's units, for a time or for a rate. *)
let fast_time l = quantile l 0.05
let fast_rate l = quantile l 0.95

let mean l = List.fold_left ( +. ) 0. l /. float_of_int (max 1 (List.length l))
