(* The library's one host clock: CLOCK_MONOTONIC, in nanoseconds.

   Host-side timings (a served event, a stream's rate, an epoch swap, a
   pipeline stage, a verifier run) are read on it, while everything a
   program can observe runs on the simulated Vclock.  It is the clock the
   repository benchmark times from outside, so a rate the library reports
   about itself and one measured around it can be compared.  Process CPU
   time would sum the time of every domain and cost a [getrusage] syscall
   per read. *)

let now_ns = Monotonic_clock.now
