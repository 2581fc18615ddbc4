(** The serving engine: a consolidated, typed {!plan} describing one
    served event stream, executed by one per-event loop on one or more
    shards over shared epoch snapshots.

    {2 Model}

    A {!plan} holds the shape of a stream: hook, event count, generator,
    chaos schedule, hot-reload schedule, and the sharding shape (domain
    count, queue bound, overflow policy, partition function), built by a
    smart constructor.  {!run} executes it.  A {e shard} is one machine
    serving events in ascending original order — a world, a pooled
    invocation context, a {!Supervisor}, a quarantine bench and its
    tallies — and every event goes through the same per-event function:

    - [domains = 1]: the in-line shard, on the calling domain, against the
      engine's own world, invocation context and supervisor (supervision
      state accumulates across runs on one engine); a quarantine also
      detaches the offender from the engine's hook.
    - [domains > 1]: the coordinator walks the stream in original order,
      partitions events to shards by flow hash over the payload (or round
      robin), and each shard domain serves its events against a private
      machine — a shard {!World.shard_of} (own kernel, shard-local map
      storage, own bug database), private invocation context, private
      {!Supervisor}, private {!Telemetry.Registry} — while sharing the
      base world's epoch chain.

    Mid-stream reloads cut the stream into segments: reload groups apply
    lazily in boundary order under one lock, and every invocation pins its
    segment's snapshot ({!Invoke.run} [?snap]), so a superseded epoch's
    grace period cannot close while a shard still serves under it.
    Sharded, each segment's snapshot is retained until stream end; in-line,
    only until the shard moves past it, so a superseded epoch retires at
    its swap.

    {2 Determinism}

    Per-event work depends only on the original event index: the
    generator is consumed in order and chaos is a pure function of
    [(seed, index)].  Each event's outcome fold and invocation count land
    at its original index, and the in-line checksum is reconstructed
    exactly as [g_i = g_(i-1) * 31^(k_i) + e_i] — so N-shard, 1-shard
    ({!sharded}) and in-line runs agree, for extensions whose per-event
    outcome does not read state mutated by other events (map contents are
    shard-local, per-CPU style).  Under [Supervise] breaker state evolves
    in shard-local order (scorecards are honest per shard, not
    shard-count invariant); the determinism oracle runs under {!Isolate}.
    [Fail_fast] sharded is a best-effort broadcast abort.  [Drop_newest]
    overflow is lossy by design; drops are counted, and a dropped event
    leaves the reconstructed checksum unchanged. *)

(** {2 Engine} *)

type policy =
  | Fail_fast
      (** the first kernel crash aborts the stream and the kernel stays
          dead; sharded: best-effort broadcast abort *)
  | Isolate
      (** contain each crash to the invocation that caused it: revive the
          kernel, charge the fault to the offending extension, keep
          serving (the default) *)
  | Supervise of Supervisor.config
      (** isolate + per-extension circuit breakers + quarantine (sharded:
          per-shard breakers, benched shard-locally, merged by digest) *)

type engine = {
  world : World.t;
  attach : Attach.t;
  ictx : Invoke.t;
  opts : Invoke.run_opts;
  policy : policy;
  sup : Supervisor.t;
}

val create : ?opts:Invoke.run_opts -> ?policy:policy -> World.t -> engine
(** [opts] applies to every invocation (its [skb_payload] is overridden
    per event).  [policy] defaults to {!Isolate}.

    Statically bounded programs (the bound pass) serve with fuel-check
    batching by default ([opts.use_bound_batching]). *)

type reload = engine -> Epoch.builder -> unit
(** A scheduled hot reload: stage epoch changes on the builder (loads via
    [Pipeline.load_ebpf ~into], unloads, tail-call rewires, config
    changes) and/or rewire the engine's attachments.  The engine
    publishes the builder when the plan returns and measures the swap as
    [epoch.swap_ns]. *)

(** {2 The plan} *)

val synthetic_packets : ?seed:int64 -> size:int -> unit -> int -> Bytes.t
(** Deterministic packet generator: [synthetic_packets ~size () i] is the
    [i]th packet (byte 0 carries [i land 0xff]).  Stateful — consume in
    order, once. *)

type partition =
  | Flow_hash    (** FNV-1a over the payload, the stand-in for a flow key *)
  | Round_robin  (** [index mod domains] *)

type plan = {
  hook : string;
  count : int;
  gen : int -> Bytes.t;  (** stateful: called once per index, in order *)
  domains : int;
  chaos : Chaos.config option;
  reloads : (int * reload) list;
      (** each [(i, plan)] runs at the boundary before event [i]; plans
          sharing an index apply in list order, one epoch swap each *)
  record_checksums : bool;
  queue_capacity : int;
  overflow : Shard.overflow;
  partition : partition;
}

val plan :
  ?seed:int64 ->
  ?size:int ->
  ?gen:(int -> Bytes.t) ->
  ?domains:int ->
  ?chaos:Chaos.config ->
  ?reloads:(int * reload) list ->
  ?record_checksums:bool ->
  ?queue_capacity:int ->
  ?overflow:Shard.overflow ->
  ?partition:partition ->
  hook:string -> count:int -> unit -> plan
(** Smart constructor.  Defaults: a fresh {!synthetic_packets} generator
    (default seed, [size] 64 — pass [?seed]/[?size] to shape it, or
    [?gen] to replace it; [?seed] with [?gen] raises), [domains] 1, no
    chaos, no reloads, no checksum recording, [queue_capacity] 256,
    {!Shard.Block} overflow, {!Flow_hash} partition.  Raises
    [Invalid_argument] on [count < 0], [domains < 1] or
    [queue_capacity < 1]. *)

(** {2 Stats} *)

type totals = private {
  mutable events : int;
  mutable invocations : int;
  mutable finished : int;
  mutable stopped : int;
  mutable crashed : int;
  mutable exhausted : int;
  mutable skipped : int;  (** invocations suppressed by an open breaker *)
  mutable faults_absorbed : int;
      (** crashes + exhaustions contained (always 0 under [Fail_fast]) *)
  mutable quarantined : int;
      (** extensions detached (in-line) or shard-benched (sharded) *)
  mutable injected : int; (** chaos injections that landed on an event *)
  dropped : int;          (** events lost to [Drop_newest] queue overflow *)
  reloads : int;          (** reload plans applied (epoch swaps published) *)
  mutable ret_checksum : int64;
      (** order-sensitive fold of all outcomes, in original event order
          (sharded: reconstructed exactly from per-event folds) *)
  host_ns : int64;        (** wall time for the whole stream *)
  events_per_sec : float;
  per_epoch : (int * int) list;
      (** events served under each epoch, ascending epoch order *)
}
(** One tally shape for a shard and for the whole stream (the sum of its
    shards').  Read-only outside {!Serve}: the counters are mutable only
    so a shard can count in place. *)

type shard_stats = {
  shard : int;
  s_totals : totals;
      (** this shard's tally; [reloads] stays 0 (reloads belong to the
          stream) *)
  s_dropped : int;            (** events this shard's queue rejected *)
  s_queue_peak : int;         (** max queue occupancy observed *)
  s_backpressure_waits : int; (** producer waits on this shard's queue *)
  s_per_ext : Supervisor.health list;
      (** this shard's private scorecard, attach order *)
}

type stats = {
  domains : int;
  totals : totals;
  per_ext : Supervisor.health list;
      (** per-extension health: the engine supervisor's scorecard
          (in-line) or the digest-keyed merge of the per-shard scorecards
          ({!Supervisor.merge_healths}) *)
  per_shard : shard_stats list;
      (** ascending shard index; empty in-line *)
  event_checksums : int64 array;
      (** per-event outcome folds at original indices; empty unless
          [record_checksums] *)
}

val pp_totals : Format.formatter -> totals -> unit

val pp_stats : Format.formatter -> stats -> unit
(** Totals line, then one line per shard (sharded runs). *)

val checksum_add : int64 -> Invoke.outcome -> int64
(** The outcome fold: [Finished v -> acc*31+v], [Stopped -> acc*31-1],
    [Crashed -> acc*31-2], [Exhausted -> acc*31-3]. *)

(** {2 Execution} *)

val run : engine -> plan -> stats
(** Execute the plan: on the in-line shard when [plan.domains = 1],
    sharded otherwise.  Updates the [dispatch.*] telemetry counters
    (sharded: recorded per shard, folded into the calling domain's
    registry at the barrier via {!Telemetry.Registry.merge}) and exports
    the stream's throughput as [dispatch.events_per_sec].  Under
    [Fail_fast] the stream stops at the crashing event, whose invocations
    are still folded into [ret_checksum]. *)

val sharded : engine -> plan -> stats
(** Force the sharded machinery even for [domains = 1] — the oracle's
    "1-shard" leg: coordinator, queue, shard world and checksum
    reconstruction all engaged, with a single worker domain. *)
