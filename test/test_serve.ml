(* Serve tests: the sharded determinism oracle (N-domain sharded ≡
   1-domain sharded ≡ sequential, for stateless filter populations under
   Isolate), one JIT compile per program and epoch, plan validation,
   queue overflow accounting, cross-domain epoch grace, and the telemetry
   registry merge the shard barrier relies on. *)

open Untenable
module World = Framework.World
module Serve = Framework.Serve
module Shard = Framework.Shard
module Epoch = Framework.Epoch
module Chaos = Framework.Chaos
module Supervisor = Framework.Supervisor
open Ebpf.Asm

(* The stateless three-filter engine, the hot-reload hook and the reload
   schedule all live in the shared scaffolding. *)
let build_engine = Generators.build_serve_engine
let reload_schedule = Generators.reload_schedule

(* ---------------- the determinism oracle ---------------- *)

(* The oracle's body: the same stream served sequentially and forced
   through [domains] shard workers must agree event for event. *)
let sharded_matches_sequential ?chaos ?partition ~domains ~count ~reloads
    ~size () =
  let plan ?domains ?partition () =
    Serve.plan ?chaos ?domains ?partition
      ~reloads:(reload_schedule ~count ~reloads)
      ~record_checksums:true ~size ~hook:"xdp" ~count ()
  in
  (* sequential reference on a fresh engine *)
  let seq = Serve.run (build_engine ()) (plan ()) in
  (* the same stream forced through the sharded machinery *)
  let par = Serve.sharded (build_engine ()) (plan ~domains ?partition ()) in
  par.Serve.totals.Serve.events = count
  && par.Serve.totals.Serve.reloads = reloads
  && Int64.equal par.Serve.totals.Serve.ret_checksum
       seq.Serve.totals.Serve.ret_checksum
  && par.Serve.event_checksums = seq.Serve.event_checksums

let determinism_oracle =
  QCheck.Test.make ~count:12
    ~name:"sharded run reconstructs the sequential checksum exactly"
    QCheck.(quad (int_range 1 5) (int_range 1 120) bool (int_range 0 2))
    (fun (domains, count, with_chaos, reloads) ->
      let chaos =
        if with_chaos then
          Some { Chaos.default_config with Chaos.fault_rate = 0.05 }
        else None
      in
      let partition =
        if count mod 2 = 0 then Serve.Flow_hash else Serve.Round_robin
      in
      sharded_matches_sequential ?chaos ~partition ~domains ~count ~reloads
        ~size:48 ())

(* Fixed inputs at a longer stream: 4 domains, 1,500 events of 64 bytes,
   calm and across two hot reloads (at events 500 and 1,000). *)
let test_determinism_four_domains () =
  List.iter
    (fun reloads ->
      Alcotest.(check bool)
        (Printf.sprintf "4 domains, %d reloads" reloads)
        true
        (sharded_matches_sequential ~domains:4 ~count:1_500 ~reloads ~size:64
           ()))
    [ 0; 2 ]

(* ---------------- one-domain pins ---------------- *)

(* Literal outcomes of five one-domain runs, recorded once.  The oracle
   above compares the serving loop with itself; these do not move with
   the code.  Each pin is the totals' counts, checksum and per-epoch
   split, then one line per extension: state, trips and checksum. *)

let pin_counts (s : Serve.stats) =
  let t = s.Serve.totals in
  Printf.sprintf
    "events=%d inv=%d ok=%d stop=%d crash=%d exh=%d skip=%d absorbed=%d \
     quar=%d inj=%d drop=%d reloads=%d sum=%016Lx epochs=%s"
    t.Serve.events t.Serve.invocations t.Serve.finished t.Serve.stopped
    t.Serve.crashed t.Serve.exhausted t.Serve.skipped t.Serve.faults_absorbed
    t.Serve.quarantined t.Serve.injected t.Serve.dropped t.Serve.reloads
    t.Serve.ret_checksum
    (String.concat ","
       (List.map (fun (e, n) -> Printf.sprintf "%d:%d" e n) t.Serve.per_epoch))

let pin_exts (s : Serve.stats) =
  List.map
    (fun (h : Supervisor.health) ->
      Printf.sprintf "%s %s trips=%d sum=%016Lx" h.Supervisor.name
        (Supervisor.state_to_string h.Supervisor.state)
        h.Supervisor.trips h.Supervisor.ret_checksum)
    s.Serve.per_ext

let pinned_run ?chaos ?(reloads = []) ~count engine =
  Serve.run engine
    (Serve.plan ?chaos ~reloads ~seed:7L ~size:32 ~hook:"xdp" ~count ())

let check_pin name ~counts ~exts s =
  Alcotest.(check string) (name ^ ": totals") counts (pin_counts s);
  Alcotest.(check (list string)) (name ^ ": extensions") exts (pin_exts s)

let population = Generators.build_population_engine

let test_pin_isolate_crasher () =
  check_pin "isolate + crasher"
    (pinned_run ~count:25 (population ~with_crasher:true ()))
    ~counts:
      "events=25 inv=75 ok=50 stop=0 crash=25 exh=0 skip=0 absorbed=25 \
       quar=0 inj=0 drop=0 reloads=0 \
       sum=7d557acd8ab2b55e epochs=4:25"
    ~exts:
      [ "crasher closed trips=0 sum=7012de2a10f182fe";
        "len closed trips=0 sum=fed21d5ef0e7d020";
        "parity closed trips=0 sum=0000000000000000" ]

let test_pin_supervise_crasher () =
  let policy =
    Serve.Supervise
      { Supervisor.default_config with
        Supervisor.cooldown_ns = 1L; max_cooldown_ns = 4L }
  in
  check_pin "supervise + crasher"
    (pinned_run ~count:60 (population ~policy ~with_crasher:true ()))
    ~counts:
      "events=60 inv=125 ok=120 stop=0 crash=5 exh=0 skip=0 absorbed=5 \
       quar=1 inj=0 drop=0 reloads=0 \
       sum=06c7942b688b9e7e epochs=4:60"
    ~exts:
      [ "crasher quarantined trips=3 sum=ffffffffffe2e07e";
        "len closed trips=0 sum=7d35722a607d7800";
        "parity closed trips=0 sum=0000000000000000" ]

let test_pin_fail_fast_crasher () =
  check_pin "fail-fast + crasher"
    (pinned_run ~count:10
       (population ~policy:Serve.Fail_fast ~with_crasher:true ()))
    ~counts:
      "events=1 inv=1 ok=0 stop=0 crash=1 exh=0 skip=0 absorbed=0 \
       quar=0 inj=0 drop=0 reloads=0 \
       sum=fffffffffffffffe epochs=4:1"
    ~exts:
      [ "crasher closed trips=0 sum=fffffffffffffffe" ]

let test_pin_chaos () =
  let chaos = { Chaos.default_config with Chaos.fault_rate = 0.2 } in
  check_pin "chaos 0.2"
    (pinned_run ~chaos ~count:120 (population ~with_crasher:false ()))
    ~counts:
      "events=120 inv=240 ok=216 stop=0 crash=0 exh=24 skip=0 absorbed=24 \
       quar=0 inj=25 drop=0 reloads=0 \
       sum=945e93970e1f9e00 epochs=3:120"
    ~exts:
      [ "len closed trips=0 sum=1e21051ccd9dd2b4";
        "parity closed trips=0 sum=cd4ac5e4b4226b34" ]

let test_pin_reloads () =
  let engine = population ~with_crasher:false () in
  let s =
    pinned_run ~reloads:(reload_schedule ~count:100 ~reloads:3) ~count:100
      engine
  in
  check_pin "reloads 3" s
    ~counts:
      "events=100 inv=350 ok=350 stop=0 crash=0 exh=0 skip=0 absorbed=0 \
       quar=0 inj=0 drop=0 reloads=3 \
       sum=84714311a833dfa8 epochs=3:25,4:25,5:25,6:25"
    ~exts:
      [ "len closed trips=0 sum=f7d2afcd2bc7c800";
        "parity closed trips=0 sum=0000000000000000";
        "hot0 closed trips=0 sum=f2e9e3d894e7c5ac";
        "hot1 closed trips=0 sum=40d24dc1e9f3cca0";
        "hot2 closed trips=0 sum=e4def530018bbc2e" ];
  (* each superseded epoch retires at its swap: no pin outlives a segment *)
  let store = engine.Serve.world.World.epochs in
  Alcotest.(check (pair int int)) "retired, pending" (5, 0)
    (Epoch.retired store, Epoch.grace_pending store);
  Alcotest.(check (list (option int64))) "grace per transition"
    [ Some 0L; Some 0L; Some 0L; Some 0L; Some 0L ]
    (List.map
       (fun (t : Epoch.transition) -> t.Epoch.grace_ns)
       (Epoch.transitions store))

(* A stream that dies mid-segment (here its generator raises) must not
   leave the segment's snapshot pinned: the next swap still retires the
   superseded epoch. *)
let test_pin_released_on_raise () =
  let engine = build_engine () in
  let gen i = if i = 5 then failwith "generator died" else Bytes.make 48 'x' in
  (match Serve.run engine (Serve.plan ~gen ~hook:"xdp" ~count:10 ()) with
  | _ -> Alcotest.fail "the generator's exception was swallowed"
  | exception Failure _ -> ());
  ignore (World.reconfigure engine.Serve.world (fun _ -> ()));
  Alcotest.(check int) "no epoch left pending" 0
    (Epoch.grace_pending engine.Serve.world.World.epochs)

(* ---------------- JIT images ---------------- *)

let jit_opts = { Framework.Invoke.default_opts with Framework.Invoke.use_jit = true }
let jit_compiles f = snd (Generators.with_jit_compiles f)

(* A serving context compiles each program once per epoch it runs in,
   however many events it serves; a one-shot invocation compiles on every
   call. *)
let test_jit_compiles_once_per_epoch () =
  let serve ?(reloads = 0) count =
    jit_compiles (fun () ->
        ignore
          (Serve.run (build_engine ~opts:jit_opts ())
             (Serve.plan ~reloads:(reload_schedule ~count ~reloads) ~seed:7L
                ~size:32 ~hook:"xdp" ~count ())))
  in
  Alcotest.(check int) "3 filters, 10 events" 3 (serve 10);
  Alcotest.(check int) "3 filters, 1,000 events" 3 (serve 1_000);
  (* each hot reload adds a filter: the four segments run 3, 4, 5 and 6 *)
  Alcotest.(check int) "3 reloads: programs x segments" (3 + 4 + 5 + 6)
    (serve ~reloads:3 1_000);
  let world = World.create_populated () in
  let loaded =
    Result.get_ok
      (Framework.Pipeline.load_ebpf world
         (Generators.prog ~name:"seven" [ mov_i r0 7; exit_ ]))
  in
  Alcotest.(check int) "one-shot: one compile per call" 5
    (jit_compiles (fun () ->
         for _ = 1 to 5 do
           ignore (Framework.Invoke.run ~opts:jit_opts world loaded)
         done))

(* A reload that swaps a filter for one returning another constant: the
   JIT engine serves the new image from the swap on, event for event as
   the interpreter does. *)
let test_jit_reload_swaps_image () =
  let build opts =
    let engine = build_engine ~opts () in
    let attach k =
      Framework.Attach.attach engine.Serve.attach ~hook:"xdp"
        (Result.get_ok
           (Framework.Pipeline.load_ebpf engine.Serve.world
              (Generators.prog ~name:(Printf.sprintf "const%d" k)
                 [ mov_i r0 (40 + k); exit_ ])))
    in
    let current = ref (attach 0) in
    let swap k (e : Serve.engine) b =
      let a = !current in
      ignore (Framework.Attach.detach e.Serve.attach ~attach_id:a.Framework.Attach.attach_id);
      (match a.Framework.Attach.loaded with
      | Framework.Pipeline.Ebpf_prog { prog_id; _ } -> ignore (Epoch.unload b ~prog_id)
      | Framework.Pipeline.Rustlite_ext _ -> assert false);
      let p = Generators.prog ~name:(Printf.sprintf "const%d" k) [ mov_i r0 (40 + k); exit_ ] in
      current :=
        Framework.Attach.attach e.Serve.attach ~hook:"xdp"
          (Result.get_ok (Framework.Pipeline.load_ebpf ~into:b e.Serve.world p))
    in
    Serve.run engine
      (Serve.plan ~reloads:[ (30, swap 1); (60, swap 2) ] ~record_checksums:true
         ~seed:7L ~size:32 ~hook:"xdp" ~count:90 ())
  in
  let interp = build Framework.Invoke.default_opts and jit = build jit_opts in
  Alcotest.(check int) "two reloads" 2 jit.Serve.totals.Serve.reloads;
  Alcotest.(check bool) "per-event checksums match the interpreter" true
    (jit.Serve.event_checksums = interp.Serve.event_checksums);
  Alcotest.(check int64) "total checksum" interp.Serve.totals.Serve.ret_checksum
    jit.Serve.totals.Serve.ret_checksum

(* ---------------- plan validation ---------------- *)

let test_plan_validation () =
  let raises f =
    match f () with
    | exception Invalid_argument _ -> true
    | _ -> false
  in
  Alcotest.(check bool) "count < 0 rejected" true
    (raises (fun () -> Serve.plan ~hook:"xdp" ~count:(-1) ()));
  Alcotest.(check bool) "domains < 1 rejected" true
    (raises (fun () -> Serve.plan ~domains:0 ~hook:"xdp" ~count:1 ()));
  Alcotest.(check bool) "queue_capacity < 1 rejected" true
    (raises (fun () -> Serve.plan ~queue_capacity:0 ~hook:"xdp" ~count:1 ()));
  Alcotest.(check bool) "seed with gen rejected" true
    (raises (fun () ->
         Serve.plan ~seed:1L ~gen:(fun _ -> Bytes.create 8) ~hook:"xdp" ~count:1 ()));
  let p = Serve.plan ~hook:"xdp" ~count:5 () in
  Alcotest.(check int) "default domains" 1 p.Serve.domains;
  Alcotest.(check int) "default queue" 256 p.Serve.queue_capacity

(* ---------------- bounded queues ---------------- *)

let test_shard_queue_drop_newest () =
  let q = Shard.create ~capacity:2 Shard.Drop_newest in
  Alcotest.(check bool) "push 1" true (Shard.push q 1);
  Alcotest.(check bool) "push 2" true (Shard.push q 2);
  Alcotest.(check bool) "push 3 dropped" false (Shard.push q 3);
  Alcotest.(check int) "dropped counted" 1 (Shard.dropped q);
  Alcotest.(check int) "peak" 2 (Shard.peak q);
  Shard.close q;
  Alcotest.(check (option int)) "pop 1" (Some 1) (Shard.pop q);
  Alcotest.(check (option int)) "pop 2" (Some 2) (Shard.pop q);
  Alcotest.(check (option int)) "drained" None (Shard.pop q)

(* Sharded Drop_newest: every generated event is either served or counted
   as dropped, and drops leave the reconstructed checksum untouched for
   the events that were served. *)
let test_drop_newest_accounting () =
  let count = 400 in
  let r =
    Serve.sharded (build_engine ())
      (Serve.plan ~domains:3 ~queue_capacity:1 ~overflow:Shard.Drop_newest
         ~record_checksums:true ~size:48 ~hook:"xdp" ~count ())
  in
  let t = r.Serve.totals in
  Alcotest.(check int) "served + dropped = generated" count
    (t.Serve.events + t.Serve.dropped);
  let shard_drops =
    List.fold_left (fun a s -> a + s.Serve.s_dropped) 0 r.Serve.per_shard
  in
  Alcotest.(check int) "per-shard drops sum to the total" t.Serve.dropped
    shard_drops;
  (* a dropped event's slot stays at the fold-identity, so the recorded
     array still has one entry per generated event *)
  Alcotest.(check int) "one checksum slot per event" count
    (Array.length r.Serve.event_checksums)

(* A queue of capacity 1 is the tightest legal bound: the second push in
   a row must drop (and be counted) while the first still pops intact. *)
let test_shard_queue_capacity_one () =
  (match Shard.create ~capacity:0 Shard.Drop_newest with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "capacity 0 accepted");
  let q = Shard.create ~capacity:1 Shard.Drop_newest in
  Alcotest.(check bool) "push 1" true (Shard.push q 1);
  Alcotest.(check bool) "push 2 dropped" false (Shard.push q 2);
  Alcotest.(check bool) "push 3 dropped" false (Shard.push q 3);
  Alcotest.(check int) "both drops counted" 2 (Shard.dropped q);
  Alcotest.(check int) "peak is the capacity" 1 (Shard.peak q);
  Alcotest.(check int) "no producer waits under Drop_newest" 0
    (Shard.backpressure_waits q);
  Shard.close q;
  Alcotest.(check (option int)) "survivor pops" (Some 1) (Shard.pop q);
  Alcotest.(check (option int)) "drained" None (Shard.pop q)

(* Single-domain sharded plan over a capacity-1 Block queue: nothing may
   drop, the peak must cap at the capacity, and the stream must still
   reconstruct the sequential checksum exactly. *)
let test_single_domain_queue_counters () =
  let count = 100 in
  let seq =
    Serve.run (build_engine ())
      (Serve.plan ~record_checksums:true ~size:48 ~hook:"xdp" ~count ())
  in
  let r =
    Serve.sharded (build_engine ())
      (Serve.plan ~domains:1 ~queue_capacity:1 ~overflow:Shard.Block
         ~record_checksums:true ~size:48 ~hook:"xdp" ~count ())
  in
  let t = r.Serve.totals in
  Alcotest.(check int) "all events served" count t.Serve.events;
  Alcotest.(check int) "nothing dropped under Block" 0 t.Serve.dropped;
  (match r.Serve.per_shard with
  | [ s ] ->
    Alcotest.(check int) "peak capped at capacity" 1 s.Serve.s_queue_peak;
    Alcotest.(check int) "no shard drops" 0 s.Serve.s_dropped;
    Alcotest.(check bool) "wait counter is sane" true
      (s.Serve.s_backpressure_waits >= 0
      && s.Serve.s_backpressure_waits <= count)
  | l -> Alcotest.failf "expected one shard, got %d" (List.length l));
  Alcotest.(check int64) "checksum matches sequential"
    seq.Serve.totals.Serve.ret_checksum t.Serve.ret_checksum;
  Alcotest.(check bool) "per-event checksums match" true
    (r.Serve.event_checksums = seq.Serve.event_checksums)

(* ---------------- cross-domain epoch grace ---------------- *)

let test_multi_domain_grace () =
  let world = World.create_populated () in
  let store = world.World.epochs in
  let snap = Epoch.current store in
  (* two shard-like domains each retain the snapshot, as segment capture
     does; the pins must be visible across domains *)
  let d1 = Domain.spawn (fun () -> ignore (Epoch.retain store snap)) in
  let d2 = Domain.spawn (fun () -> ignore (Epoch.retain store snap)) in
  Domain.join d1;
  Domain.join d2;
  (* publish epoch 2: the genesis snapshot is superseded but still pinned *)
  let b = Epoch.begin_ store in
  ignore
    (Epoch.add_prog b
       (Ebpf.Program.of_items_exn ~name:"noop"
          ~prog_type:Ebpf.Program.Socket_filter [ mov_i r0 0; exit_ ]));
  ignore (Epoch.publish b);
  Alcotest.(check int) "grace pending while both shards pin" 1
    (Epoch.grace_pending store);
  Epoch.release store snap;
  Alcotest.(check int) "still pending after one shard unpins" 1
    (Epoch.grace_pending store);
  let d3 = Domain.spawn (fun () -> Epoch.release store snap) in
  Domain.join d3;
  Alcotest.(check int) "retired once every shard unpins" 0
    (Epoch.grace_pending store);
  Alcotest.(check int) "retired count" 1 (Epoch.retired store)

(* ---------------- registry merge ---------------- *)

let test_registry_merge () =
  let open Telemetry in
  let a = Registry.create ~label:"shard-a" () in
  let b = Registry.create ~label:"shard-b" () in
  Registry.using a (fun () ->
      Counter.incr ~n:3 (Registry.counter "m.count");
      Histogram.observe (Registry.histogram "m.ns") 8L;
      Histogram.observe (Registry.histogram "m.ns") 64L;
      Counter.incr (Registry.counter "m.only_a"));
  Registry.using b (fun () ->
      Counter.incr ~n:4 (Registry.counter "m.count");
      Histogram.observe (Registry.histogram "m.ns") 8L);
  Registry.merge a ~into:b;
  Registry.using b (fun () ->
      Alcotest.(check int) "counters sum" 7
        (Counter.value (Registry.counter "m.count"));
      Alcotest.(check int) "absent counters materialize" 1
        (Counter.value (Registry.counter "m.only_a"));
      let hist = Registry.histogram "m.ns" in
      Alcotest.(check int) "histogram counts sum" 3 (Histogram.count hist);
      Alcotest.(check int64) "histogram sums add" 80L (Histogram.sum hist);
      Alcotest.(check int64) "histogram max is max" 64L
        (Histogram.max_value hist));
  (* the source registry is left untouched *)
  Registry.using a (fun () ->
      Alcotest.(check int) "src counters unchanged" 3
        (Counter.value (Registry.counter "m.count")))

let test_ring_merge_drops () =
  let open Telemetry in
  let src = Ring.create ~capacity:4 in
  let dst = Ring.create ~capacity:2 in
  for i = 0 to 2 do
    Ring.push src ~time_ns:(Int64.of_int i) ~depth:0 ~trace:0 ~kind:Event.Point
      ~name:"x" ~value:0L
  done;
  Ring.push dst ~time_ns:99L ~depth:0 ~trace:0 ~kind:Event.Point ~name:"y"
    ~value:0L;
  Ring.merge_into ~src ~dst;
  (* dst held 1 of 2; one src event fits, two overflow and are counted *)
  Alcotest.(check int) "dst full" 2 (Ring.length dst);
  Alcotest.(check int) "overflow counted" 2 (Ring.dropped dst)

(* ---------------- scorecard merge ---------------- *)

let test_merge_healths () =
  let mk ~digest ~name ~finished ~crashed state =
    { Supervisor.attach_id = 1; digest; name;
      state; invocations = finished + crashed; finished; stopped = 0;
      crashed; exhausted = 0; skipped = 0; trips = 0; quarantined = false;
      crash_rate = 0.; exhaust_rate = 0.;
      p50_ns = 10L; p99_ns = 20L;
      ret_checksum = Int64.of_int (finished + crashed) }
  in
  let a = mk ~digest:"d1" ~name:"len" ~finished:5 ~crashed:0 Supervisor.Closed in
  let b =
    mk ~digest:"d1" ~name:"len" ~finished:3 ~crashed:2
      (Supervisor.Open { until_ns = 5L })
  in
  match Supervisor.merge_healths [ [ a ]; [ b ] ] with
  | [ m ] ->
    Alcotest.(check int) "invocations sum" 10 m.Supervisor.invocations;
    Alcotest.(check int) "finished sum" 8 m.Supervisor.finished;
    Alcotest.(check int) "crashed sum" 2 m.Supervisor.crashed;
    Alcotest.(check bool) "worst state wins" true
      (match m.Supervisor.state with Supervisor.Open _ -> true | _ -> false);
    Alcotest.(check int64) "checksums add" 10L m.Supervisor.ret_checksum
  | l -> Alcotest.failf "expected one merged row, got %d" (List.length l)

let suite =
  [
    QCheck_alcotest.to_alcotest determinism_oracle;
    Alcotest.test_case "pin: Isolate + crasher" `Quick test_pin_isolate_crasher;
    Alcotest.test_case "pin: Supervise + crasher" `Quick
      test_pin_supervise_crasher;
    Alcotest.test_case "pin: Fail_fast + crasher" `Quick
      test_pin_fail_fast_crasher;
    Alcotest.test_case "pin: chaos at rate 0.2" `Quick test_pin_chaos;
    Alcotest.test_case "pin: three hot reloads" `Quick test_pin_reloads;
    Alcotest.test_case "segment pin released on raise" `Quick
      test_pin_released_on_raise;
    Alcotest.test_case "plan validation" `Quick test_plan_validation;
    Alcotest.test_case "shard queue Drop_newest" `Quick test_shard_queue_drop_newest;
    Alcotest.test_case "sharded Drop_newest accounting" `Quick
      test_drop_newest_accounting;
    Alcotest.test_case "shard queue at capacity 1" `Quick
      test_shard_queue_capacity_one;
    Alcotest.test_case "single-domain queue counters" `Quick
      test_single_domain_queue_counters;
    Alcotest.test_case "cross-domain epoch grace" `Quick test_multi_domain_grace;
    Alcotest.test_case "registry merge" `Quick test_registry_merge;
    Alcotest.test_case "ring merge drop accounting" `Quick test_ring_merge_drops;
    Alcotest.test_case "scorecard merge" `Quick test_merge_healths;
    Alcotest.test_case "JIT compiles once per context and epoch" `Quick
      test_jit_compiles_once_per_epoch;
    Alcotest.test_case "JIT reload swaps the image" `Quick
      test_jit_reload_swaps_image;
    Alcotest.test_case "determinism oracle: 4 domains, 1,500 events" `Quick
      test_determinism_four_domains;
  ]
