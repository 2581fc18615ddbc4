(* The serving engine: one plan API, one per-event loop.

   The shape of one served stream (hook, event count, generator, chaos
   schedule, reload schedule, sharding) is a [plan] value built by a smart
   constructor, and [run] executes it on *shards*.  A shard is one machine
   serving events in ascending original order — a world, a pooled
   invocation context, a Supervisor, a quarantine bench and its tallies —
   and every event on every path goes through [serve_event] against its
   shard.

   - [plan.domains = 1]: the in-line shard, on the calling domain, against
     the engine's own world, invocation context and supervisor (so
     supervision state accumulates across successive runs on one engine).
     A quarantine there also detaches the offender from the engine's hook.
   - otherwise: N shard domains.  The coordinator walks the synthetic
     event stream in original order (the generator is stateful, so order
     is identity), partitions each event to a shard by flow hash (or round
     robin) and enqueues it on that shard's bounded queue (Shard).  Each
     shard domain owns a *private* machine: a shard World (fresh simulated
     kernel, the map topology recreated with shard-local storage, a copy
     of the bug database — see World.shard_of), a private pooled
     invocation context, a private Supervisor, and a private
     Telemetry.Registry installed domain-locally so every instrumentation
     site that runs on the shard lands in it.

   What shards *share* is exactly the published program state: the base
   world's epoch chain.  Mid-stream reloads cut the stream into segments
   at the distinct reload boundaries, and a segment-control table (one
   mutex) lazily applies reload groups in boundary order the first time a
   shard needs a segment, capturing that segment's published snapshot and
   its materialized (attachment, name, digest) array.  Every invocation
   pins its segment's snapshot (Invoke.run ?snap), so the epoch grace
   period cannot close while any shard still serves events under a
   superseded epoch.

   ---- determinism ----

   Per-event work is deterministic in the ORIGINAL event index: the
   generator is consumed in order, chaos injection is a pure function of
   (seed, index), and each event's outcome fold is written to a slot
   private to its index.  The in-line stream checksum is then
   reconstructed exactly: with k_i invocations folding to e_i on event i,

     g_i = g_{i-1} * 31^{k_i} + e_i

   recombines the per-event folds into the same order-sensitive value the
   in-line shard computes — so N shards and 1 shard agree with it, for any
   N (the qcheck oracle asserts this).

   The guarantee is scoped honestly: it holds for extensions whose
   per-event outcome does not read simulation state mutated by *other*
   events (map contents are shard-local, per-CPU-map style; the virtual
   clocks of different shards advance independently).  Under [Supervise]
   breaker state evolves per shard in shard-local observation order, so
   scorecards are per-shard honest but not shard-count invariant; the
   oracle therefore runs under [Isolate].  [Fail_fast] sharded is a
   best-effort broadcast abort, not an exact replay of the in-line
   prefix. *)

module Kernel = Kernel_sim.Kernel
module Vclock = Kernel_sim.Vclock
module Registry = Telemetry.Registry
module Clock = Telemetry.Clock

(* ---- engine ---- *)

type policy =
  | Fail_fast             (* first crash aborts the stream, kernel stays dead *)
  | Isolate               (* contain crashes per invocation, keep serving *)
  | Supervise of Supervisor.config
                          (* isolate + circuit breakers + quarantine *)

type engine = {
  world : World.t;
  attach : Attach.t;
  ictx : Invoke.t;
  opts : Invoke.run_opts;
  policy : policy;
  sup : Supervisor.t;
}

let sup_config = function
  | Supervise c -> c
  | Fail_fast | Isolate -> Supervisor.default_config

let create ?(opts = Invoke.default_opts) ?(policy = Isolate) (w : World.t) =
  { world = w; attach = Attach.create (); ictx = Invoke.create w; opts; policy;
    sup = Supervisor.create ~config:(sup_config policy) () }

type reload = engine -> Epoch.builder -> unit

(* ---- synthetic events ---- *)

(* Deterministic packet stream: xorshift64* seeded per stream, byte [0] of
   each packet carries the low bits of the event index so attached filters
   can discriminate.  STATEFUL: packet [i] depends on how many packets were
   generated before it, so a generator must be consumed in order, once —
   which is why [plan] mints a fresh one per call. *)
let synthetic_packets ?(seed = 0x9e3779b97f4a7c15L) ~size () =
  let state = ref (if Int64.equal seed 0L then 1L else seed) in
  let next () =
    let x = !state in
    let x = Int64.logxor x (Int64.shift_left x 13) in
    let x = Int64.logxor x (Int64.shift_right_logical x 7) in
    let x = Int64.logxor x (Int64.shift_left x 17) in
    state := x;
    x
  in
  fun i ->
    let b = Bytes.create size in
    for off = 0 to size - 1 do
      Bytes.set b off (Char.chr (Int64.to_int (next ()) land 0xff))
    done;
    if size > 0 then Bytes.set b 0 (Char.chr (i land 0xff));
    b

(* ---- the plan ---- *)

type partition = Flow_hash | Round_robin

type plan = {
  hook : string;
  count : int;
  gen : int -> Bytes.t;
  domains : int;
  chaos : Chaos.config option;
  reloads : (int * reload) list;
  record_checksums : bool;
  queue_capacity : int;
  overflow : Shard.overflow;
  partition : partition;
}

let plan ?seed ?(size = 64) ?gen ?(domains = 1) ?chaos ?(reloads = [])
    ?(record_checksums = false) ?(queue_capacity = 256)
    ?(overflow = Shard.Block) ?(partition = Flow_hash) ~hook ~count () =
  if count < 0 then invalid_arg "Serve.plan: count must be >= 0";
  if domains < 1 then invalid_arg "Serve.plan: domains must be >= 1";
  if queue_capacity < 1 then
    invalid_arg "Serve.plan: queue_capacity must be >= 1";
  let gen =
    match gen with
    | Some g ->
      if seed <> None then
        invalid_arg "Serve.plan: ~seed is meaningless with an explicit ~gen";
      g
    | None -> synthetic_packets ?seed ~size ()
  in
  { hook; count; gen; domains; chaos; reloads; record_checksums;
    queue_capacity; overflow; partition }

(* ---- stats ---- *)

(* One tally shape for a shard and for the stream.  The counters are
   mutable because a shard's tally IS its running count; the stream's is
   the [merge] of its shards'. *)
type totals = {
  mutable events : int;
  mutable invocations : int;
  mutable finished : int;
  mutable stopped : int;
  mutable crashed : int;
  mutable exhausted : int;
  mutable skipped : int;          (* invocations suppressed by an open breaker *)
  mutable faults_absorbed : int;  (* crashes + exhaustions contained (not Fail_fast) *)
  mutable quarantined : int;      (* extensions detached/benched during the stream *)
  mutable injected : int;         (* chaos injections that landed on an event *)
  dropped : int;                  (* events lost to Drop_newest queue overflow *)
  reloads : int;                  (* reload plans applied (epoch swaps published) *)
  mutable ret_checksum : int64;   (* order-sensitive fold of all outcomes *)
  host_ns : int64;                (* wall time for the whole stream *)
  events_per_sec : float;
  per_epoch : (int * int) list;   (* epoch -> events served under it *)
}

let zero () =
  { events = 0; invocations = 0; finished = 0; stopped = 0; crashed = 0;
    exhausted = 0; skipped = 0; faults_absorbed = 0; quarantined = 0;
    injected = 0; dropped = 0; reloads = 0; ret_checksum = 0L; host_ns = 0L;
    events_per_sec = 0.; per_epoch = [] }

(* Two ascending epoch -> events lists, summed per epoch. *)
let rec merge_epochs a b =
  match (a, b) with
  | [], l | l, [] -> l
  | (ea, na) :: ra, (eb, nb) :: rb ->
    if ea = eb then (ea, na + nb) :: merge_epochs ra rb
    else if ea < eb then (ea, na) :: merge_epochs ra b
    else (eb, nb) :: merge_epochs a rb

(* Sum two tallies.  The checksum, wall time and rate do not add across
   shards served in parallel: they are [a]'s, for the caller to set. *)
let merge a b =
  { events = a.events + b.events;
    invocations = a.invocations + b.invocations;
    finished = a.finished + b.finished;
    stopped = a.stopped + b.stopped;
    crashed = a.crashed + b.crashed;
    exhausted = a.exhausted + b.exhausted;
    skipped = a.skipped + b.skipped;
    faults_absorbed = a.faults_absorbed + b.faults_absorbed;
    quarantined = a.quarantined + b.quarantined;
    injected = a.injected + b.injected;
    dropped = a.dropped + b.dropped;
    reloads = a.reloads + b.reloads;
    ret_checksum = a.ret_checksum;
    host_ns = a.host_ns;
    events_per_sec = a.events_per_sec;
    per_epoch = merge_epochs a.per_epoch b.per_epoch }

type shard_stats = {
  shard : int;
  s_totals : totals;          (* this shard's tally *)
  s_dropped : int;            (* events this shard's queue rejected *)
  s_queue_peak : int;
  s_backpressure_waits : int;
  s_per_ext : Supervisor.health list;  (* this shard's private scorecard *)
}

type stats = {
  domains : int;
  totals : totals;
  per_ext : Supervisor.health list;
      (* the engine supervisor's scorecard in-line; sharded, the
         digest-keyed merge of the per-shard ones *)
  per_shard : shard_stats list;  (* ascending shard index; [] in-line *)
  event_checksums : int64 array;
      (* per-event outcome folds at original indices (record_checksums) *)
}

let pp_totals ppf t =
  Format.fprintf ppf
    "events=%d invocations=%d finished=%d stopped=%d crashed=%d exhausted=%d \
     skipped=%d absorbed=%d quarantined=%d injected=%d dropped=%d reloads=%d \
     checksum=%016Lx rate=%.0f ev/s"
    t.events t.invocations t.finished t.stopped t.crashed t.exhausted
    t.skipped t.faults_absorbed t.quarantined t.injected t.dropped t.reloads
    t.ret_checksum t.events_per_sec

let pp_shard ppf s =
  let t = s.s_totals in
  Format.fprintf ppf
    "shard %d: events=%d invocations=%d finished=%d crashed=%d exhausted=%d \
     skipped=%d injected=%d dropped=%d qpeak=%d waits=%d"
    s.shard t.events t.invocations t.finished t.crashed t.exhausted t.skipped
    t.injected s.s_dropped s.s_queue_peak s.s_backpressure_waits

let pp_stats ppf s =
  Format.fprintf ppf "%a" pp_totals s.totals;
  List.iter (fun sh -> Format.fprintf ppf "@.%a" pp_shard sh) s.per_shard

(* ---- shared helpers ---- *)

let checksum_add acc = function
  | Invoke.Finished v -> Int64.add (Int64.mul acc 31L) v
  | Invoke.Stopped _ -> Int64.add (Int64.mul acc 31L) (-1L)
  | Invoke.Crashed _ -> Int64.add (Int64.mul acc 31L) (-2L)
  | Invoke.Exhausted _ -> Int64.add (Int64.mul acc 31L) (-3L)

(* [t] with its wall time and rate, timed from [started]. *)
let timed t ~started =
  let elapsed = Int64.sub (Clock.now_ns ()) started in
  let rate =
    if Int64.compare elapsed 0L > 0 then
      float_of_int t.events /. (Int64.to_float elapsed /. 1e9)
    else 0.
  in
  { t with host_ns = elapsed; events_per_sec = rate }

(* FNV-1a over the payload: the stand-in for a real flow key (5-tuple). *)
let flow_hash (b : Bytes.t) =
  let h = ref 0xcbf29ce484222325L in
  for i = 0 to Bytes.length b - 1 do
    h :=
      Int64.mul
        (Int64.logxor !h (Int64.of_int (Char.code (Bytes.unsafe_get b i))))
        0x100000001b3L
  done;
  Int64.to_int (Int64.logand !h 0x3fffffff_ffffffffL)

let shard_for p ~nshards ~index payload =
  match p.partition with
  | Round_robin -> index mod nshards
  | Flow_hash -> flow_hash payload mod nshards

let tele_rate = Registry.counter "dispatch.events_per_sec"

(* ---- segments ----

   The stream cut at the distinct reload boundaries.  Segment [s] is the
   run of events between boundary [s-1] (inclusive) and boundary [s]
   (exclusive); its world view is the snapshot published after applying
   the first [s] reload groups.  Groups are applied lazily, in boundary
   order, under one mutex, the first time any shard needs the segment.
   Each segment's snapshot is retained while a shard may still serve it:
   until stream end when shards run in parallel (one may lag behind
   another), only until the in-line shard moves past it otherwise — so a
   superseded epoch retires at its swap, as between the events of a plain
   loop.  Its attachment list is materialized once, digests
   precomputed. *)

type seg_entry = {
  seg_snap : Epoch.snapshot;
  seg_attach : (Attach.attachment * string * string) array;
      (* (attachment, name, digest) in attach order *)
}

type segctl = {
  sc_lock : Mutex.t;
  sc_boundaries : int array;  (* sorted distinct reload indices *)
  sc_engine : engine;
  sc_plan : plan;
  sc_inline : bool;           (* one shard: unpin a segment once past it *)
  mutable sc_applied : int;   (* reload groups applied so far *)
  sc_entries : seg_entry option array;  (* one slot per segment *)
  mutable sc_reloads : int;   (* individual reload plans applied *)
}

let segctl_create ~inline e p =
  let boundaries =
    List.filter_map
      (fun (idx, _) -> if idx >= 0 && idx < p.count then Some idx else None)
      p.reloads
    |> List.sort_uniq Int.compare |> Array.of_list
  in
  { sc_lock = Mutex.create (); sc_boundaries = boundaries; sc_engine = e;
    sc_plan = p; sc_inline = inline; sc_applied = 0;
    sc_entries = Array.make (Array.length boundaries + 1) None;
    sc_reloads = 0 }

(* Segment of event [i]: how many boundaries are <= i. *)
let segment_of ctl i =
  let b = ctl.sc_boundaries in
  let lo = ref 0 and hi = ref (Array.length b) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if b.(mid) <= i then lo := mid + 1 else hi := mid
  done;
  !lo

let capture_segment ctl k =
  if ctl.sc_entries.(k) = None then begin
    let e = ctl.sc_engine in
    let store = e.world.World.epochs in
    let snap = Epoch.retain store (Epoch.current store) in
    let attach =
      Attach.attached e.attach ~hook:ctl.sc_plan.hook
      |> List.map (fun a -> (a, Attach.name a, Attach.digest a))
      |> Array.of_list
    in
    ctl.sc_entries.(k) <- Some { seg_snap = snap; seg_attach = attach }
  end

let release_segment ctl k =
  match ctl.sc_entries.(k) with
  | Some { seg_snap; _ } ->
    Epoch.release ctl.sc_engine.world.World.epochs seg_snap;
    ctl.sc_entries.(k) <- None
  | None -> ()

(* Stage each reload plan of the group at [idx] on a fresh builder,
   publish it, and time the swap on the host clock.  Name-resolved
   telemetry, so the swap is credited to whichever shard's registry
   triggered the lazy application. *)
let apply_group ctl idx =
  let e = ctl.sc_engine in
  List.iter
    (fun (_, rplan) ->
      let swap_started = Clock.now_ns () in
      let b = Epoch.begin_ e.world.World.epochs in
      rplan e b;
      ignore (Epoch.publish b);
      Registry.observe_name "epoch.swap_ns"
        (Int64.sub (Clock.now_ns ()) swap_started);
      Registry.incr_name "dispatch.reloads";
      ctl.sc_reloads <- ctl.sc_reloads + 1)
    (List.filter (fun (i, _) -> i = idx) ctl.sc_plan.reloads)

let ensure_segment ctl s =
  Mutex.protect ctl.sc_lock @@ fun () ->
  while ctl.sc_applied < s do
    (* freeze the current segment's view before advancing past it — or,
       in-line, let it go: no shard is left behind to serve it *)
    if ctl.sc_inline then release_segment ctl ctl.sc_applied
    else capture_segment ctl ctl.sc_applied;
    apply_group ctl ctl.sc_boundaries.(ctl.sc_applied);
    ctl.sc_applied <- ctl.sc_applied + 1
  done;
  capture_segment ctl s;
  Option.get ctl.sc_entries.(s)

let release_segments ctl =
  Mutex.protect ctl.sc_lock @@ fun () ->
  Array.iteri (fun k _ -> release_segment ctl k) ctl.sc_entries

(* ---- the shard and its per-event loop ---- *)

type shard = {
  engine : engine;
  p : plan;
  ctl : segctl;
  world : World.t;
  ictx : Invoke.t;
  sup : Supervisor.t;
  supervised : bool;
  (* quarantined attach ids: skipped for the rest of the stream (in-line,
     also detached from the engine's hook, so later segments omit them) *)
  benched : (int, unit) Hashtbl.t;
  tally : totals;
  epochs : (int, int ref) Hashtbl.t;  (* epoch -> events served under it *)
  (* per-event folds and invocation counts at original indices, shared by
     every shard of a run ([||] in-line unless recording) *)
  ev_sums : int64 array;
  ev_counts : int array;
  abort : bool Atomic.t;  (* Fail_fast: tell the other shards to stop *)
  mutable seg : int;      (* the segment last looked up, and its entry *)
  mutable entry : seg_entry option;
  (* the loop's telemetry, interned in the registry current when the
     shard starts: the caller's in-line, the shard's own on a worker *)
  tele_events : Telemetry.Counter.t;
  tele_invocations : Telemetry.Counter.t;
  tele_crashes : Telemetry.Counter.t;
  tele_stops : Telemetry.Counter.t;
  tele_exhausted : Telemetry.Counter.t;
  tele_skipped : Telemetry.Counter.t;
  tele_absorbed : Telemetry.Counter.t;
  tele_event_ns : Telemetry.Histogram.t;
  tele_event_span_ns : Telemetry.Histogram.t;
}

let new_shard engine p ctl ~world ~ictx ~sup ~ev_sums ~ev_counts ~abort =
  { engine; p; ctl; world; ictx; sup;
    supervised = (match engine.policy with Supervise _ -> true | _ -> false);
    benched = Hashtbl.create 4; tally = zero (); epochs = Hashtbl.create 4;
    ev_sums; ev_counts; abort; seg = -1; entry = None;
    tele_events = Registry.counter "dispatch.events";
    tele_invocations = Registry.counter "dispatch.invocations";
    tele_crashes = Registry.counter "dispatch.crashes";
    tele_stops = Registry.counter "dispatch.stops";
    tele_exhausted = Registry.counter "dispatch.exhausted";
    tele_skipped = Registry.counter "dispatch.skipped";
    tele_absorbed = Registry.counter "dispatch.faults_absorbed";
    tele_event_ns = Registry.histogram "dispatch.event_ns";
    tele_event_span_ns = Registry.histogram "dispatch.event.ns" }

(* A shard serves its events in ascending index order, so segment lookups
   are monotone and the mutex is taken once per segment. *)
let entry_for c seg =
  if c.seg <> seg then begin
    c.entry <- Some (ensure_segment c.ctl seg);
    c.seg <- seg
  end;
  Option.get c.entry

(* The shard's tally, with its per-epoch split, timed from [started]. *)
let shard_totals c ~started =
  timed
    { c.tally with
      per_epoch =
        Hashtbl.fold (fun ep r acc -> (ep, !r) :: acc) c.epochs []
        |> List.sort (fun (a, _) (b, _) -> Int.compare a b) }
    ~started

(* A contained fault: revive already happened (crash) or was unnecessary
   (exhaustion); charge the breaker and quarantine on its verdict. *)
let contained_fault c (ext : Supervisor.ext) =
  c.tally.faults_absorbed <- c.tally.faults_absorbed + 1;
  Registry.bump c.tele_absorbed;
  if c.supervised then
    let now = Vclock.now c.world.World.kernel.Kernel.clock in
    match Supervisor.observe_fault c.sup ext ~now_ns:now with
    | Supervisor.Quarantine ->
      let attach_id = ext.Supervisor.attach_id in
      Hashtbl.replace c.benched attach_id ();
      if c.ctl.sc_inline then
        ignore (Attach.detach c.engine.attach ~attach_id);
      c.tally.quarantined <- c.tally.quarantined + 1
    | Supervisor.Tripped _ | Supervisor.No_change -> ()

(* Serve event [i] on shard [c].  Each event runs under a fresh causal
   trace on the simulated clock: dispatch.event > dispatch.<ext> >
   loader.run > interp/jit.run, with supervisor and chaos points landing
   inside whichever span was open when they fired.  A Fail_fast crash
   raises [Exit] after the event's folds are recorded. *)
let serve_event c i payload =
  let { seg_snap; seg_attach } = entry_for c (segment_of c.ctl i) in
  let t = c.tally in
  let kernel = c.world.World.kernel in
  let vnow () = Vclock.now kernel.Kernel.clock in
  Registry.bump c.tele_events;
  let ev_started = Clock.now_ns () in
  t.events <- t.events + 1;
  (let ep = seg_snap.Epoch.epoch in
   match Hashtbl.find_opt c.epochs ep with
   | Some r -> incr r
   | None -> Hashtbl.add c.epochs ep (ref 1));
  let ev_checksum = ref 0L and ev_invocations = ref 0 in
  let invoke opts ((a : Attach.attachment), name, digest) =
    (* digest-keyed: the same image keeps its breaker history across
       detach/re-attach and epoch swaps *)
    let ext = Supervisor.ext c.sup ~digest ~attach_id:a.Attach.attach_id ~name in
    let decision =
      if c.supervised then Supervisor.decide c.sup ext ~now_ns:(vnow ())
      else Supervisor.Execute
    in
    Registry.with_span ("dispatch." ^ name) ~clock:vnow @@ fun () ->
    match decision with
    | Supervisor.Skip ->
      (* breaker open / quarantined: fast-fail, span still closes *)
      Registry.point "dispatch.skip" ~value:(Int64.of_int a.Attach.attach_id);
      Supervisor.observe_skip ext;
      t.skipped <- t.skipped + 1;
      Registry.bump c.tele_skipped
    | Supervisor.Execute | Supervisor.Probe ->
      Registry.bump c.tele_invocations;
      let inv_started = vnow () in
      let r =
        Invoke.run ~opts ~ictx:c.ictx ~snap:seg_snap c.world a.Attach.loaded
      in
      (* scorecard latency: Vclock cost of this invocation, recorded
         whether or not tracing retained the spans *)
      Registry.observe ext.Supervisor.lat (Int64.sub (vnow ()) inv_started);
      let outcome = r.Invoke.outcome in
      t.invocations <- t.invocations + 1;
      incr ev_invocations;
      ext.Supervisor.invocations <- ext.Supervisor.invocations + 1;
      t.ret_checksum <- checksum_add t.ret_checksum outcome;
      ev_checksum := checksum_add !ev_checksum outcome;
      ext.Supervisor.ret_checksum <-
        checksum_add ext.Supervisor.ret_checksum outcome;
      (match outcome with
      | Invoke.Finished _ ->
        t.finished <- t.finished + 1;
        ext.Supervisor.finished <- ext.Supervisor.finished + 1;
        if c.supervised then Supervisor.observe_ok c.sup ext ~now_ns:(vnow ())
      | Invoke.Stopped _ ->
        (* a language panic is a clean self-stop, not a fault *)
        Registry.bump c.tele_stops;
        t.stopped <- t.stopped + 1;
        ext.Supervisor.stopped <- ext.Supervisor.stopped + 1;
        if c.supervised then Supervisor.observe_ok c.sup ext ~now_ns:(vnow ())
      | Invoke.Crashed _ -> (
        Registry.bump c.tele_crashes;
        t.crashed <- t.crashed + 1;
        ext.Supervisor.crashed <- ext.Supervisor.crashed + 1;
        match c.engine.policy with
        | Fail_fast ->
          (* the kernel stays dead; sharded, the other shards stop too *)
          Atomic.set c.abort true;
          raise Exit
        | Isolate | Supervise _ ->
          ignore (Kernel.revive kernel);
          contained_fault c ext)
      | Invoke.Exhausted _ -> (
        Registry.bump c.tele_exhausted;
        t.exhausted <- t.exhausted + 1;
        ext.Supervisor.exhausted <- ext.Supervisor.exhausted + 1;
        match c.engine.policy with
        | Fail_fast -> ()  (* guards cleaned up; keep serving *)
        | Isolate | Supervise _ -> contained_fault c ext))
  in
  let record () =
    if Array.length c.ev_sums > 0 then begin
      c.ev_sums.(i) <- !ev_checksum;
      c.ev_counts.(i) <- !ev_invocations
    end
  in
  match
    Registry.with_trace (Registry.fresh_trace ()) @@ fun () ->
    Registry.with_span "dispatch.event" ~hist:c.tele_event_span_ns ~clock:vnow
    @@ fun () ->
    let inj =
      match c.p.chaos with
      | None -> Chaos.Calm
      | Some ch -> Chaos.injection ch ~event:i
    in
    if inj <> Chaos.Calm then t.injected <- t.injected + 1;
    let opts =
      Chaos.apply_opts inj
        { c.engine.opts with Invoke.skb_payload = Some payload }
    in
    let bugs = c.world.World.bugs in
    Chaos.arm inj bugs;
    Fun.protect ~finally:(fun () -> Chaos.disarm inj bugs) @@ fun () ->
    Array.iter
      (fun ((a : Attach.attachment), _, _ as ext) ->
        if not (Hashtbl.mem c.benched a.Attach.attach_id) then invoke opts ext)
      seg_attach
  with
  | () ->
    record ();
    Registry.observe c.tele_event_ns (Int64.sub (Clock.now_ns ()) ev_started)
  | exception Exit ->
    record ();
    raise Exit

(* Export the latest stream's throughput (counter-as-gauge). *)
let export_rate t =
  Telemetry.Counter.reset tele_rate;
  Registry.incr tele_rate ~n:(int_of_float t.events_per_sec)

(* ---- the in-line shard (plan.domains = 1) ---- *)

let run_inline (e : engine) (p : plan) : stats =
  let started = Clock.now_ns () in
  let ctl = segctl_create ~inline:true e p in
  let n = if p.record_checksums then p.count else 0 in
  let c =
    new_shard e p ctl ~world:e.world ~ictx:e.ictx ~sup:e.sup
      ~ev_sums:(Array.make n 0L) ~ev_counts:(Array.make n 0)
      ~abort:(Atomic.make false)
  in
  (* a stream that dies mid-segment (a raising generator, say) must not
     leave its segment's snapshot pinned *)
  Fun.protect ~finally:(fun () -> release_segments ctl) (fun () ->
      try
        for i = 0 to p.count - 1 do
          serve_event c i (p.gen i)
        done
      with Exit -> ());
  let totals = { (shard_totals c ~started) with reloads = ctl.sc_reloads } in
  export_rate totals;
  { domains = 1; totals; per_ext = Supervisor.healths e.sup; per_shard = [];
    event_checksums = c.ev_sums }

(* ---- sharded execution ---- *)

(* Exact reconstruction of the in-line order-sensitive checksum from the
   per-event folds: g_i = g_{i-1} * 31^{k_i} + e_i.  Slots of dropped
   events hold (k = 0, e = 0), which leaves the fold unchanged — a
   dropped event simply never happened. *)
let recombine ~(ev_sums : int64 array) ~(ev_counts : int array) =
  let acc = ref 0L in
  for i = 0 to Array.length ev_sums - 1 do
    for _ = 1 to ev_counts.(i) do
      acc := Int64.mul !acc 31L
    done;
    acc := Int64.add !acc ev_sums.(i)
  done;
  !acc

(* One shard worker: drain the queue, serving every event against a
   private machine.  After a Fail_fast abort the loop keeps draining —
   discarding events — so a Block-mode producer can never deadlock
   against a stopped consumer.  [ev_sums] / [ev_counts] slots are written
   by exactly the one shard an event was partitioned to, so there is no
   cross-domain write conflict. *)
let worker (e : engine) (p : plan) ctl queue ~ev_sums ~ev_counts ~abort () =
  let started = Clock.now_ns () in
  let sw = World.shard_of e.world in
  let c =
    new_shard e p ctl ~world:sw ~ictx:(Invoke.create sw)
      ~sup:(Supervisor.create ~config:(sup_config e.policy) ())
      ~ev_sums ~ev_counts ~abort
  in
  let rec drain () =
    match Shard.pop queue with
    | None -> ()
    | Some (i, payload) ->
      if not (Atomic.get abort) then (try serve_event c i payload with Exit -> ());
      drain ()
  in
  drain ();
  (shard_totals c ~started, Supervisor.healths c.sup)

let sharded (e : engine) (p : plan) : stats =
  let n = p.domains in
  let started = Clock.now_ns () in
  let ctl = segctl_create ~inline:false e p in
  let ev_sums = Array.make p.count 0L in
  let ev_counts = Array.make p.count 0 in
  let abort = Atomic.make false in
  let queues =
    Array.init n (fun _ -> Shard.create ~capacity:p.queue_capacity p.overflow)
  in
  let registries =
    Array.init n (fun k ->
        Registry.create ~label:(Printf.sprintf "shard-%d" k) ())
  in
  let home = Registry.current () in
  let doms =
    Array.init n (fun k ->
        Domain.spawn (fun () ->
            Registry.using registries.(k)
              (worker e p ctl queues.(k) ~ev_sums ~ev_counts ~abort)))
  in
  (* The coordinator is the single producer: the stateful generator is
     consumed in original order, so event [i]'s payload is identical to
     what the in-line shard would have fed it. *)
  (try
     for i = 0 to p.count - 1 do
       if Atomic.get abort then raise Exit;
       let payload = p.gen i in
       let shard = shard_for p ~nshards:n ~index:i payload in
       ignore (Shard.push queues.(shard) (i, payload))
     done
   with Exit -> ());
  Array.iter Shard.close queues;
  let results = Array.map Domain.join doms in
  (* barrier: fold every shard's registry into the caller's, bench the
     segment pins so superseded epochs can finish their grace periods *)
  Array.iter (fun reg -> Registry.merge reg ~into:home) registries;
  release_segments ctl;
  let per_shard =
    List.init n (fun k ->
        let t, healths = results.(k) and q = queues.(k) in
        let dropped = Shard.dropped q in
        { shard = k; s_totals = { t with dropped }; s_dropped = dropped;
          s_queue_peak = Shard.peak q;
          s_backpressure_waits = Shard.backpressure_waits q;
          s_per_ext = healths })
  in
  let merged =
    List.fold_left (fun acc s -> merge acc s.s_totals) (zero ()) per_shard
  in
  let totals =
    timed
      { merged with reloads = ctl.sc_reloads;
                    ret_checksum = recombine ~ev_sums ~ev_counts }
      ~started
  in
  export_rate totals;
  { domains = n;
    totals;
    per_ext = Supervisor.merge_healths (List.map (fun s -> s.s_per_ext) per_shard);
    per_shard;
    event_checksums = (if p.record_checksums then ev_sums else [||]) }

let run e (p : plan) = if p.domains = 1 then run_inline e p else sharded e p
