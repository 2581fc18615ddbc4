(** Deterministic fault injection for the serving path.

    The injection schedule is a pure function of [(seed, event index)] —
    no mutable RNG state — so two runs with the same seed inject the same
    faults at the same events.  Three injection kinds cover the fault
    classes the supervisor must absorb: a helper bug armed from
    {!Helpers.Bugdb} for one event (kernel crash), a squeezed fuel budget
    (fuel exhaustion), and a collapsed call-depth cap (stack trip). *)

type injection =
  | Calm                    (** no injection this event *)
  | Helper_bug of string    (** arm this Bugdb key for one event *)
  | Fuel_pressure of int64  (** squeeze the fuel budget to this value *)
  | Stack_pressure          (** collapse the call-depth cap *)

type config = {
  seed : int64;
  fault_rate : float;       (** injection probability per event, [0, 1] *)
  bug_keys : string list;   (** helper bugs in the rotation *)
  fuel_pressure : int64;    (** injected fuel budget; negative disables *)
  stack_pressure : bool;
}

val default_config : config
(** 1% fault rate; rotation = probe-read OOB bug, fuel 16, stack pressure. *)

val injection : config -> event:int -> injection
(** The injection for one event — pure and random-access. *)

val arm : injection -> Helpers.Bugdb.t -> unit
(** Apply the world-level part (Bugdb force_on) and count the injection. *)

val disarm : injection -> Helpers.Bugdb.t -> unit
(** Undo [arm] via [Bugdb.unforce_on]: only the one override [arm]
    pushed goes, so a bug the caller forced on stays on and one it forced
    off stays off. *)

val apply_opts : injection -> Invoke.run_opts -> Invoke.run_opts
(** The per-invocation part: tighten fuel / call-depth for this event. *)

val describe : injection -> string

val planned : config -> count:int -> int
(** How many of the first [count] events carry an injection. *)
