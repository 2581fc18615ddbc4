(* The benchmark's one clock: CLOCK_MONOTONIC in nanoseconds.  Nothing the
   library reports about its own time (Sys.time CPU time) feeds a metric. *)

let now = Monotonic_clock.now

let since t0 = Int64.to_float (Int64.sub (now ()) t0)

(* Busy-wait: the planted delay of the self-test. *)
let spin_ns ns =
  let until = Int64.add (now ()) (Int64.of_int ns) in
  while Int64.compare (now ()) until < 0 do
    ()
  done
