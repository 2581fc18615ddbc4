(* Deterministic fault injection for the serving path.

   The supervision layer is only trustworthy if it can be exercised: this
   module decides, from a seed and an event index alone, whether an event
   gets a fault injected and which kind — arming a helper bug from
   Helpers.Bugdb for the duration of one event, squeezing the fuel budget,
   or collapsing the call-depth cap (synthetic stack pressure).

   The schedule is a pure function of (seed, event index): no mutable RNG
   state, so two runs with the same seed inject exactly the same faults at
   exactly the same events regardless of what happens in between — the
   property the bench's degradation comparison and the tests rely on. *)

module Bugdb = Helpers.Bugdb

type injection =
  | Calm                    (* no injection this event *)
  | Helper_bug of string    (* arm this Bugdb key for one event *)
  | Fuel_pressure of int64  (* squeeze the fuel budget to this value *)
  | Stack_pressure          (* collapse the call-depth cap: immediate trip *)

type config = {
  seed : int64;
  fault_rate : float;       (* injection probability per event, [0, 1] *)
  bug_keys : string list;   (* helper bugs in the rotation *)
  fuel_pressure : int64;    (* injected fuel budget; negative disables *)
  stack_pressure : bool;
}

let default_config =
  {
    seed = 0x63_68_61_6f_73L (* "chaos" *);
    fault_rate = 0.01;
    bug_keys = [ "hbug:probe-read-size-unchecked" ];
    fuel_pressure = 16L;
    stack_pressure = true;
  }

(* splitmix64 of (seed, i): random-access, no state. *)
let mix seed i =
  let z = Int64.add seed (Int64.mul (Int64.of_int (i + 1)) 0x9e3779b97f4a7c15L) in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xbf58476d1ce4e5b9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94d049bb133111ebL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let kinds c =
  List.map (fun k -> Helper_bug k) c.bug_keys
  @ (if Int64.compare c.fuel_pressure 0L >= 0 then [ Fuel_pressure c.fuel_pressure ] else [])
  @ if c.stack_pressure then [ Stack_pressure ] else []

(* The injection for event [event] — a pure function of the config. *)
let injection c ~event =
  if c.fault_rate <= 0. then Calm
  else
    let u = mix c.seed event in
    let bucket = Int64.to_int (Int64.rem (Int64.shift_right_logical u 11) 1_000_000L) in
    if float_of_int bucket >= c.fault_rate *. 1e6 then Calm
    else
      match kinds c with
      | [] -> Calm
      | ks ->
        let pick =
          Int64.to_int
            (Int64.rem (Int64.shift_right_logical u 33)
               (Int64.of_int (List.length ks)))
        in
        List.nth ks pick

let tele_injected = Telemetry.Registry.counter "chaos.injected"

(* Arm/disarm the world-level part of an injection (the Bugdb toggle).
   Disarm undoes exactly the one [force_on] that arm pushed: [force_off]
   would pin the bug off for the rest of the world's life, and clearing
   every override would also drop the caller's own force_on/force_off. *)
let arm inj (bugs : Bugdb.t) =
  match inj with
  | Calm -> ()
  | Helper_bug key ->
    Bugdb.force_on bugs key;
    Telemetry.Registry.bump tele_injected
  | Fuel_pressure _ | Stack_pressure -> Telemetry.Registry.bump tele_injected

let disarm inj (bugs : Bugdb.t) =
  match inj with
  | Helper_bug key -> Bugdb.unforce_on bugs key
  | Calm | Fuel_pressure _ | Stack_pressure -> ()

(* The per-invocation part: tighten the run options for this event. *)
let apply_opts inj (opts : Invoke.run_opts) =
  match inj with
  | Calm | Helper_bug _ -> opts
  | Fuel_pressure f ->
    let fuel =
      match opts.Invoke.fuel with
      | Some existing when Int64.compare existing f < 0 -> existing
      | _ -> f
    in
    { opts with Invoke.fuel = Some fuel }
  | Stack_pressure ->
    (* depth 0 > -1: the entry frame itself trips the stack guard *)
    { opts with Invoke.max_depth = Some (-1) }

let describe = function
  | Calm -> "calm"
  | Helper_bug k -> "helper-bug " ^ k
  | Fuel_pressure f -> Printf.sprintf "fuel-pressure %Ld" f
  | Stack_pressure -> "stack-pressure"

(* How many injections a [count]-event stream will see (for reporting). *)
let planned c ~count =
  let n = ref 0 in
  for i = 0 to count - 1 do
    if injection c ~event:i <> Calm then incr n
  done;
  !n
