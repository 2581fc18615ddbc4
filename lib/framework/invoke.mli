(** Invoking a loaded extension, one-shot or through a pooled context.

    {!run} without an [ictx] builds a fresh helper context and fresh
    ctx/skb regions per invocation.  With a pooled {!t}, the helper context
    is reset and the ctx/skb regions are reused, keeping the simulated
    address space constant-size under a serving loop ({!Serve}). *)

type run_opts = {
  skb_payload : Bytes.t option;  (** packet to attach (socket_filter/xdp) *)
  fuel : int64 option;           (** instruction budget guard *)
  wall_ns : int64 option;        (** wall-clock guard (interpreter only) *)
  max_depth : int option;        (** call-depth cap (interpreter only) *)
  ns_per_insn : int64;           (** simulated cost per instruction *)
  use_jit : bool;
  jit_branch_bug : bool;         (** inject the JIT branch-offset bug *)
  use_elision : bool;
      (** honour the elide pass's guard elisions carried on the loaded
          handle (no-op when the analysis did not run); off = always
          evaluate every guard dynamically *)
  use_bound_batching : bool;
      (** honour the bound pass's fuel-check windows on proven-bounded
          programs: one up-front fuel charge per straight-line window
          instead of a check per instruction.  Outcome- and
          trip-point-identical to per-instruction checking (a window opens
          only when the tank covers it whole); off = check every
          instruction *)
  bound_watchdog : bool;
      (** when no [wall_ns] was given and the program has a static bound,
          derive an advisory wall-clock deadline from it (well past what a
          bounded program can spend — it only fires if the bound lied).
          Off by default: a derived deadline changes outcomes for programs
          that sleep in helpers, so it is strictly opt-in *)
}

val default_opts : run_opts
(** No packet, no guards, 1ns/insn, interpreter, elision and fuel-check
    batching honoured, no derived watchdog. *)

type t
(** A reusable invocation context bound to one world.

    Under [use_jit] it also holds the JIT images it compiled, keyed by
    physical identity on (program, elision vector, [jit_branch_bug]), so
    each program is compiled once and every later invocation, tail-call
    targets included, runs the cached image.  The images are compiled
    against this context's helper context, which lives as long as the
    context, and they read every per-run budget from run-time state.  The
    table is dropped whenever {!run} pins a snapshot of another epoch than
    the one it was filled under: a reload recompiles what runs after it,
    and the table never holds more than one epoch's programs. *)

val create : World.t -> t

type resource = Fuel | Wall_clock | Stack
(** Which runtime budget an invocation ran out of. *)

val resource_to_string : resource -> string

type outcome =
  | Finished of int64                    (** clean return value *)
  | Stopped of Runtime.Guard.termination
      (** clean self-stop: a language panic handled by safe termination *)
  | Crashed of Kernel_sim.Oops.report    (** the kernel is dead *)
  | Exhausted of resource * Runtime.Guard.termination
      (** a runtime budget (fuel / wall-clock / stack) ran out; the
          recorded destructors ran and the kernel is intact *)

val outcome_of_termination : Runtime.Guard.termination -> outcome
(** Lift a guard termination into the outcome algebra: fuel, watchdog and
    stack trips become {!Exhausted}; a language panic becomes {!Stopped}. *)

val pp_outcome : Format.formatter -> outcome -> unit

type run_report = {
  outcome : outcome;
  health : Kernel_sim.Kernel.health;
  trace : string list;                  (** bpf_trace_printk / kcrate trace *)
  resources_outstanding : int;          (** acquired resources left at exit *)
  insns_retired : int64;
      (** instructions retired by completed activations: the quantity the
          bound pass's [Bounded n] promises never exceeds [n].  An
          activation cut short by a tail call is not counted (the
          bound-vs-observed cross-check skips tail-calling runs); Rustlite
          extensions report 0 *)
}

val max_tail_calls : int
(** MAX_TAIL_CALL_CNT: the kernel's cap on chained tail calls. *)

val run :
  ?opts:run_opts -> ?ictx:t -> ?snap:Epoch.snapshot -> World.t ->
  Pipeline.loaded -> run_report
(** One invocation: pins one epoch snapshot for its whole duration
    (RCU-style — [?snap] to pin an explicitly retained older epoch,
    default the current one), builds (or reuses) the attach context,
    snapshots refcounts for leak attribution, executes under the requested
    guards, chases tail calls (up to {!max_tail_calls}) {e against the
    pinned snapshot}, fires armed timers (the simulated softirq), and
    reports the outcome with the kernel's health.  The pin is released on
    every exit path, letting superseded epochs retire.  Raises
    [Invalid_argument] if [ictx] was created for a different world. *)
