(* The serve phase: a closed loop of seeded packets through [Serve.run]
   (sequential) or [Serve.sharded] (one worker domain), in chunks.  Each
   chunk serves the same seeded stream on a freshly built engine, so every
   chunk has one reference outcome, fixed during set-up, and the build is
   the set-up the benchmark times.

   Per-event latency comes from monotonic stamps taken in the generator
   callback, which the serving loop calls once per event: the gap between
   two calls is one event's serving time.  On the sharded path the
   coordinator calls the generator, so the gap is its per-event pace,
   which a full queue ties to the worker's service time. *)

open Untenable
module Serve = Framework.Serve
module World = Framework.World
module Attach = Framework.Attach
module Pipeline = Framework.Pipeline
module Invoke = Framework.Invoke
module Epoch = Framework.Epoch
module Supervisor = Framework.Supervisor
module Chaos = Framework.Chaos

type kind = Light | Compute | Churn

let hook = "xdp"
let packet_size = 64
let pool_size = 1024

(* Events per chunk: about a tenth of a second of serving each. *)
let chunk_events = function Light -> 4_000 | Compute -> 2_000 | Churn -> 8_000

let reloads_per_chunk = 10

(* Seeded 64-byte packets; the stream cycles through the pool. *)
let packet_pool ~seed =
  let st = Random.State.make [| seed; 0x9ac7 |] in
  Array.init pool_size (fun _ ->
      Bytes.init packet_size (fun _ -> Char.chr (Random.State.int st 256)))

let load_exn world prog =
  match Pipeline.load_ebpf world prog with
  | Ok l -> l
  | Error e ->
    failwith
      (Format.asprintf "%s failed to load: %a" prog.Ebpf.Program.name
         Pipeline.pp_error e)

let prog_id_of = function
  | Pipeline.Ebpf_prog { prog_id; _ } -> prog_id
  | Pipeline.Rustlite_ext _ -> invalid_arg "prog_id_of"

let supervise =
  Serve.Supervise
    { Supervisor.default_config with
      Supervisor.cooldown_ns = 100L; max_cooldown_ns = 1_000L }

(* 1% faults, without the stack-pressure kind: that one trips every
   extension at once, and a breaker's cooldown runs on the simulated clock,
   which only advances while something executes, so a seed that draws a
   cluster of them stalls its whole population for hundreds of events. *)
let chaos_of ~seed =
  { Chaos.default_config with Chaos.seed = Int64.of_int seed; stack_pressure = false }

type setup = {
  engine : Serve.engine;
  reloads : (int * Serve.reload) list;
}

(* One engine of [kind], its population loaded through the pipeline and
   attached.  [use_jit] is the compute workload's engine switch (the
   interpreter build is its reference). *)
let build ?(use_jit = true) kind ~signed =
  let world = World.create_populated () in
  let attach e loaded = ignore (Attach.attach e.Serve.attach ~hook loaded) in
  match kind with
  | Light ->
    let engine = Serve.create ~policy:Serve.Isolate world in
    List.iter (fun p -> attach engine (load_exn world p)) Population.light;
    { engine; reloads = [] }
  | Compute ->
    let ctr = World.register_map world Population.counter_map in
    let opts =
      { Invoke.default_opts with Invoke.use_jit; fuel = Some 100_000L }
    in
    let engine = Serve.create ~opts ~policy:Serve.Isolate world in
    List.iter
      (fun p -> attach engine (load_exn world p))
      [ Population.alu_loop; Population.guard_heavy;
        Population.map_counter ~map_id:ctr.Maps.Bpf_map.id ];
    (match Pipeline.load_rustlite world signed with
    | Ok l -> attach engine l
    | Error e -> failwith (Format.asprintf "%a" Pipeline.pp_error e));
    { engine; reloads = [] }
  | Churn ->
    let engine = Serve.create ~policy:supervise world in
    List.iter
      (fun p -> attach engine (load_exn world p))
      [ List.nth Population.light 0; List.nth Population.light 1;
        Population.alu_loop ];
    let hot = ref (Attach.attach engine.Serve.attach ~hook
                     (load_exn world (Population.hot 0))) in
    (* each reload swaps the hot filter for a freshly staged image: detach
       and unload the old one, load the new one into the epoch builder *)
    let reload k (e : Serve.engine) b =
      ignore (Attach.detach e.Serve.attach ~attach_id:!hot.Attach.attach_id);
      ignore (Epoch.unload b ~prog_id:(prog_id_of !hot.Attach.loaded));
      match Pipeline.load_ebpf ~into:b e.Serve.world (Population.hot k) with
      | Ok l -> hot := Attach.attach e.Serve.attach ~hook l
      | Error err -> failwith (Format.asprintf "%a" Pipeline.pp_error err)
    in
    let n = chunk_events Churn in
    let reloads =
      List.init (reloads_per_chunk - 1) (fun k ->
          ((k + 1) * n / reloads_per_chunk, reload (k + 1)))
    in
    { engine; reloads }

(* What a chunk must reproduce: the outcome fold and the tallies. *)
type outcome = {
  checksum : int64;
  events : int;
  invocations : int;
  finished : int;
  stopped : int;
  crashed : int;
  exhausted : int;
  skipped : int;
  quarantined : int;
  injected : int;
  dropped : int;
  reloads : int;
}

let outcome_of (s : Serve.stats) =
  let t = s.Serve.totals in
  { checksum = t.Serve.ret_checksum; events = t.Serve.events;
    invocations = t.Serve.invocations; finished = t.Serve.finished;
    stopped = t.Serve.stopped; crashed = t.Serve.crashed;
    exhausted = t.Serve.exhausted; skipped = t.Serve.skipped;
    quarantined = t.Serve.quarantined; injected = t.Serve.injected;
    dropped = t.Serve.dropped; reloads = t.Serve.reloads }

(* Extensions each event meets, the hot filter included. *)
let population_size = function Light -> 3 | Compute | Churn -> 4

(* Tallies any correct chunk obeys, whatever the serving loops compute:
   every event served, every scheduled reload applied, every extension an
   event meets either run or skipped by its breaker (fewer once one is
   quarantined), and every run ending in exactly one outcome. *)
let consistent kind o =
  let n = chunk_events kind in
  let met = o.invocations + o.skipped and all = n * population_size kind in
  o.events = n && o.dropped = 0
  && o.reloads = (match kind with Churn -> reloads_per_chunk - 1 | Light | Compute -> 0)
  && (if o.quarantined = 0 then met = all else met < all)
  && o.finished + o.stopped + o.crashed + o.exhausted = o.invocations

let plan kind ~seed ~gen (s : setup) =
  let count = chunk_events kind in
  match kind with
  | Churn ->
    Serve.plan ~gen ~chaos:(chaos_of ~seed) ~reloads:s.reloads ~hook ~count ()
  | Light | Compute -> Serve.plan ~gen ~hook ~count ()

let serve kind (s : setup) p =
  match kind with
  | Churn -> Serve.sharded s.engine p
  | Light | Compute -> Serve.run s.engine p

(* The reference outcome of one chunk, from an independent source:
   - light: a plain-OCaml model of the three filters;
   - compute: the same stream through an interpreter engine;
   - churn: the same plan through the sequential serving loop. *)
let reference kind ~seed ~pool ~signed =
  let count = chunk_events kind in
  let gen i = pool.(i mod pool_size) in
  match kind with
  | Light ->
    let checksum = ref 0L in
    for i = 0 to count - 1 do
      List.iter
        (fun v -> checksum := Serve.checksum_add !checksum (Invoke.Finished v))
        (Population.light_model (gen i))
    done;
    let inv = count * List.length Population.light in
    { checksum = !checksum; events = count; invocations = inv; finished = inv;
      stopped = 0; crashed = 0; exhausted = 0; skipped = 0; quarantined = 0;
      injected = 0; dropped = 0; reloads = 0 }
  | Compute ->
    let s = build ~use_jit:false Compute ~signed in
    outcome_of (Serve.run s.engine (plan Compute ~seed ~gen s))
  | Churn ->
    let s = build Churn ~signed in
    outcome_of (Serve.run s.engine (plan Churn ~seed ~gen s))

(* serve-churn's sharded outcome on fixed seeds, measured once and kept
   here.  The per-chunk reference above is the sequential loop, which a
   change to both serving loops alike moves with the sharded one; these
   do not move with the code. *)
let churn_pins =
  let pin ~checksum ~invocations ~finished ~exhausted ~skipped ~injected =
    { checksum; events = chunk_events Churn; invocations; finished; stopped = 0;
      crashed = 0; exhausted; skipped; quarantined = 0; injected; dropped = 0;
      reloads = reloads_per_chunk - 1 }
  in
  [ (1, pin ~checksum:8727316883394083469L ~invocations:32000 ~finished:31953
          ~exhausted:47 ~skipped:0 ~injected:85);
    (2, pin ~checksum:4328629695038326785L ~invocations:32000 ~finished:31957
          ~exhausted:43 ~skipped:0 ~injected:85);
    (3, pin ~checksum:(-7801607254877347982L) ~invocations:31989 ~finished:31949
          ~exhausted:40 ~skipped:11 ~injected:80) ]

(* How many pinned seeds the sharded loop no longer reproduces. *)
let churn_pin_misses ~signed =
  List.length
    (List.filter
       (fun (seed, want) ->
         let pool = packet_pool ~seed in
         let gen i = pool.(i mod pool_size) in
         let s = build Churn ~signed in
         outcome_of (serve Churn s (plan Churn ~seed ~gen s)) <> want)
       churn_pins)

(* ---- measurement ---- *)

type acc = {
  latency : float array;            (* this chunk's per-event ns *)
  mutable p50s : float list;        (* per-chunk event latency quantiles, ns *)
  mutable p90s : float list;
  mutable p99s : float list;
  mutable rates : float list;       (* per-chunk wall events/s *)
  mutable self_rates : float list;  (* per-chunk Serve-reported events/s *)
  mutable setups : float list;      (* per-chunk engine build, s *)
  mutable events : int;
  mutable attempted_inv : int;
  mutable finished : int;
  mutable mismatches : int;         (* chunks that missed the reference *)
  mutable chunks : int;
  mutable last : Serve.stats option;
}

let acc kind =
  { latency = Array.make (chunk_events kind) 0.; p50s = []; p90s = []; p99s = [];
    rates = []; self_rates = []; setups = [];
    events = 0; attempted_inv = 0; finished = 0; mismatches = 0; chunks = 0;
    last = None }

type ctx = {
  kind : kind;
  seed : int;
  pool : Bytes.t array;
  signed : Rustlite.Toolchain.signed_extension;
  expect : outcome;
  pin_misses : int;  (* serve-churn pinned seeds not reproduced *)
  delay_ns : int;  (* planted per-event delay (self-test only) *)
}

let prepare kind ~seed ~delay_ns =
  let pool = packet_pool ~seed in
  let signed = Population.rustlite_counter "counter_rl" in
  { kind; seed; pool; signed; expect = reference kind ~seed ~pool ~signed;
    pin_misses = (match kind with Churn -> churn_pin_misses ~signed | Light | Compute -> 0);
    delay_ns }

let timed_build c =
  let t0 = Clock.now () in
  let s = build c.kind ~signed:c.signed in
  (s, Clock.since t0 /. 1e9)

(* Serve one chunk on a fresh engine.  [on_event i start stop] sees every
   event's stamped interval (the traced run turns them into spans). *)
let chunk ?(on_event = fun _ _ _ -> ()) c a =
  let s, setup_s = timed_build c in
  a.setups <- setup_s :: a.setups;
  let last = ref 0L and idx = ref (-1) in
  let stamp t =
    if !idx >= 0 then begin
      a.latency.(!idx) <- Int64.to_float (Int64.sub t !last);
      on_event !idx !last t
    end;
    last := t
  in
  let gen i =
    stamp (Clock.now ());
    idx := i;
    if c.delay_ns > 0 then Clock.spin_ns c.delay_ns;
    c.pool.(i mod pool_size)
  in
  let p = plan c.kind ~seed:c.seed ~gen s in
  let t0 = Clock.now () in
  let stats = serve c.kind s p in
  let t1 = Clock.now () in
  stamp t1;
  let wall = Int64.to_float (Int64.sub t1 t0) /. 1e9 in
  let o = outcome_of stats in
  if o <> c.expect || not (consistent c.kind o) then a.mismatches <- a.mismatches + 1;
  (match Stats.quantiles a.latency ~len:(!idx + 1) [ 0.5; 0.9; 0.99 ] with
  | [ p50; p90; p99 ] ->
    a.p50s <- p50 :: a.p50s;
    a.p90s <- p90 :: a.p90s;
    a.p99s <- p99 :: a.p99s
  | _ -> assert false);
  a.rates <- (float_of_int o.events /. wall) :: a.rates;
  a.self_rates <- stats.Serve.totals.Serve.events_per_sec :: a.self_rates;
  a.events <- a.events + o.events;
  a.attempted_inv <- a.attempted_inv + o.invocations + o.skipped;
  a.finished <- a.finished + o.finished;
  a.chunks <- a.chunks + 1;
  a.last <- Some stats;
  s

