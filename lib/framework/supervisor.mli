(** Per-extension health supervision for the serving path.

    Each attached extension carries a circuit breaker driven on the virtual
    clock:

    {v
    Closed --(fault_threshold faults in a window)--> Open
    Open --(cooldown elapsed)--> Half_open
    Half_open --(probe ok)--> Closed
    Half_open --(probe faults)--> Open, cooldown * backoff
    (quarantine_after trips) --> Quarantined
    v}

    A {e fault} is a contained kernel crash ({!Invoke.Crashed}) or a budget
    exhaustion ({!Invoke.Exhausted}); a language panic ({!Invoke.Stopped})
    is a clean self-stop and does not count against the breaker.

    The machine is exercised through {!decide} / {!observe_fault} /
    {!observe_ok} with an explicit [now_ns], so every transition is
    deterministic and unit-testable without a serving engine. *)

type config = {
  window : int;            (** sliding window length, in observations *)
  fault_threshold : int;   (** faults within [window] that open the breaker *)
  cooldown_ns : int64;     (** base open -> half-open cooldown (Vclock ns) *)
  backoff : float;         (** cooldown multiplier per re-trip *)
  max_cooldown_ns : int64; (** backoff cap *)
  quarantine_after : int;  (** breaker trips before quarantine *)
}

val default_config : config
(** window 16, threshold 3, cooldown 1 simulated ms, backoff x2 capped at
    1 s, quarantine after 3 trips. *)

type state = Closed | Open of { until_ns : int64 } | Half_open | Quarantined

val state_to_string : state -> string

type ext = {
  mutable attach_id : int;
      (** last-seen attach id; rebound when the same image re-attaches *)
  name : string;
  digest : string;
      (** content digest the record is keyed by; [""] when attach-id keyed *)
  mutable state : state;
  mutable trips : int;            (** times the breaker opened, cumulative *)
  mutable seq : int;              (** observations (executions + skips) *)
  mutable fault_seqs : int list;  (** seqs of recent faults, newest first *)
  mutable invocations : int;
  mutable finished : int;
  mutable stopped : int;
  mutable crashed : int;
  mutable exhausted : int;
  mutable skipped : int;
  mutable ret_checksum : int64;
  mutable quarantined_at_ns : int64 option;
  lat : Telemetry.Histogram.t;
      (** invocation latency (Vclock ns), interned as ["ext.<name>.ns"];
          observed by {!Serve}, read back as the scorecard's p50/p99 *)
}
(** Mutable per-extension record; the serving tallies are filled in by
    {!Serve}. *)

type t

val create : ?config:config -> unit -> t

val ext : ?digest:string -> t -> attach_id:int -> name:string -> ext
(** Find-or-create the record for one attachment.  With [?digest] (the
    extension's content digest, {!Attach.digest}) the record is keyed by
    digest, so breaker state, trip counts and quarantine survive
    detach/re-attach across epochs — the same image keeps its history, a
    genuinely new image starts clean.  Without a digest the record is
    keyed by attach id (unit-test convenience).  [attach_id] is rebound to
    the latest value on every lookup. *)

val exts : t -> ext list
(** All tracked extensions, in attach order. *)

type decision =
  | Execute  (** breaker closed: run normally *)
  | Probe    (** half-open: run once to test recovery *)
  | Skip     (** open or quarantined: do not run *)

val decide : t -> ext -> now_ns:int64 -> decision
(** May move an expired [Open] breaker to [Half_open]. *)

type transition =
  | No_change
  | Tripped of { until_ns : int64; trip : int }  (** breaker opened *)
  | Quarantine  (** trip budget spent: caller must detach *)

val observe_fault : t -> ext -> now_ns:int64 -> transition
(** Record a contained fault.  In [Closed], trips once the window holds
    [fault_threshold] faults; in [Half_open], re-trips immediately with the
    backed-off cooldown.  Emits [supervisor.*] telemetry. *)

val observe_ok : t -> ext -> now_ns:int64 -> unit
(** Record a clean execution; a successful probe closes the breaker. *)

val observe_skip : ext -> unit

val cooldown_for : config -> trip:int -> int64
(** Cooldown for the [trip]th trip (1-based):
    [cooldown_ns * backoff^(trip-1)], capped at [max_cooldown_ns]. *)

type health = {
  attach_id : int;
  name : string;
  digest : string;  (** [""] when the record was attach-id keyed *)
  state : state;
  trips : int;
  invocations : int;
  finished : int;
  stopped : int;
  crashed : int;
  exhausted : int;
  skipped : int;
  ret_checksum : int64;
  quarantined : bool;
  p50_ns : int64;        (** median invocation latency (Vclock ns) *)
  p99_ns : int64;        (** tail invocation latency (Vclock ns) *)
  crash_rate : float;    (** crashed / invocations *)
  exhaust_rate : float;  (** exhausted / invocations *)
}
(** Immutable snapshot of one extension's serving health: the scorecard
    row rendered by the CLI's [top] subcommand. *)

val health_of_ext : ext -> health
val healths : t -> health list
(** Snapshots in attach order (quarantined extensions included). *)

val merge_healths : health list list -> health list
(** Fold per-shard scorecards into one, keyed by content digest (records
    without a digest merge by attach id + name).  Tallies and trips sum;
    [ret_checksum] combines by order-insensitive Int64 addition (NOT the
    sequential stream checksum — {!Serve} reconstructs that exactly);
    p50/p99 take the max across shards (the conservative bound once each
    shard has reduced its histogram to quantiles); state merges to the
    worst (Quarantined > Open > Half-open > Closed); rates are recomputed
    from the merged tallies.  Result sorted by attach id, then name. *)

val pp_health : Format.formatter -> health -> unit
