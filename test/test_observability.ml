(* Observability tests: the causal-trace export round-trip (a seeded
   dispatch stream must produce a trace that survives the Chrome
   trace-event parser's span-tree validation, including the breaker-open
   fast-fail path), the Vclock sampling profiler's arming semantics, the
   verdict-cache hit/miss/invalidation counters, and the exporter
   surfaces the satellites added: ring drop count + capacity in both JSON
   and Prometheus, and label escaping for hostile span names.

   The registry is process-global; every test resets it and restores the
   enabled flag and trace capacity on the way out. *)

open Untenable
module Event = Telemetry.Event
module Registry = Telemetry.Registry
module Export = Telemetry.Export
module Profiler = Telemetry.Profiler
module Trace_check = Telemetry.Trace_check
module World = Framework.World
module Pipeline = Framework.Pipeline
module Serve = Framework.Serve
module Attach = Framework.Attach
module Supervisor = Framework.Supervisor
module Verdict_cache = Framework.Verdict_cache
module Bugdb = Helpers.Bugdb
open Ebpf.Asm

let h = Helpers.Registry.id_of_name

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  go 0

(* Run [f] against a freshly reset registry, restoring the global knobs it
   may perturb regardless of outcome. *)
let with_fresh f =
  let was = Registry.enabled () in
  Registry.reset ();
  Registry.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Profiler.set_period 0L;
      Profiler.reset ();
      Registry.set_trace_capacity Registry.default_trace_capacity;
      Registry.reset ();
      Registry.set_enabled was)
    f

(* ---------------- seeded dispatch stream fixtures ---------------- *)

let load world name ~prog_type items =
  match Pipeline.load_ebpf world (Ebpf.Program.of_items_exn ~name ~prog_type items) with
  | Ok loaded -> loaded
  | Error e -> Alcotest.failf "load %s: %a" name Pipeline.pp_error e

(* Verifier-accepted, crashes every invocation once the probe-read bug is
   armed (the §2.2 vehicle) — used to drive breakers open mid-stream. *)
let crasher_items =
  [ call (h "bpf_get_current_task");
    mov_r r3 r0;
    mov_r r1 r10;
    add_i r1 (-16);
    mov_i r2 16;
    call (h "bpf_probe_read_kernel");
    mov_i r0 0;
    exit_ ]

let twitchy_breaker =
  { Supervisor.window = 4;
    fault_threshold = 2;
    cooldown_ns = 1_000_000L;  (* stays open for the whole stream *)
    backoff = 2.0;
    max_cooldown_ns = 2_000_000L;
    quarantine_after = 99 }

let build_engine ?policy ~with_crasher () =
  let world = World.create_populated () in
  let engine = Serve.create ?policy world in
  if with_crasher then begin
    Bugdb.force_on world.World.bugs "hbug:probe-read-size-unchecked";
    ignore
      (Attach.attach engine.Serve.attach ~hook:"xdp"
         (load world "crasher" ~prog_type:Ebpf.Program.Kprobe crasher_items))
  end;
  ignore
    (Attach.attach engine.Serve.attach ~hook:"xdp"
       (load world "len" ~prog_type:Ebpf.Program.Socket_filter
          [ ldxw r0 r1 0; exit_ ]));
  engine

let run ~count engine =
  (Serve.run engine (Serve.plan ~seed:7L ~size:32 ~hook:"xdp" ~count ()))
    .Serve.totals

(* ---------------- causal-trace round-trip ---------------- *)

let test_dispatch_trace_roundtrip () =
  with_fresh (fun () ->
      let engine = build_engine ~with_crasher:false () in
      let r = run ~count:30 engine in
      Alcotest.(check int) "all events served" 30 r.Serve.events;
      let text = Export.to_chrome_trace (Registry.snapshot ()) in
      match Trace_check.validate text with
      | Error reason -> Alcotest.failf "trace failed validation: %s" reason
      | Ok stats ->
        Alcotest.(check bool) "has span events" true (stats.Trace_check.spans > 0);
        Alcotest.(check bool) "per-event lanes are distinct" true
          (stats.Trace_check.traces > 1);
        Alcotest.(check bool) "spans nest" true (stats.Trace_check.max_depth >= 2))

(* Satellite (c): when a breaker opens mid-stream and invocations fast-fail,
   their spans must still close — the trace validates and the raw ring holds
   as many Exit events as Enter events. *)
let test_breaker_open_spans_close () =
  with_fresh (fun () ->
      let engine =
        build_engine ~policy:(Serve.Supervise twitchy_breaker) ~with_crasher:true ()
      in
      let r = run ~count:30 engine in
      Alcotest.(check bool) "breaker-open fast-fails happened" true
        (r.Serve.skipped > 0);
      Alcotest.(check bool) "crashes happened" true (r.Serve.crashed > 0);
      let s = Registry.snapshot () in
      Alcotest.(check int) "nothing dropped from the ring" 0 s.Registry.dropped_events;
      let count kind =
        List.length (List.filter (fun (e : Event.t) -> e.kind = kind) s.Registry.events)
      in
      Alcotest.(check int) "every opened span closed" (count Event.Enter)
        (count Event.Exit);
      match Trace_check.validate (Export.to_chrome_trace s) with
      | Ok _ -> ()
      | Error reason -> Alcotest.failf "breaker-open trace invalid: %s" reason)

(* Loads are traced too: a pipeline load (admission → … → link) under a
   fresh trace id must export as balanced spans alongside dispatch lanes. *)
let test_load_trace_spans () =
  with_fresh (fun () ->
      let world = World.create_populated () in
      let prog =
        Ebpf.Program.of_items_exn ~name:"tiny" ~prog_type:Ebpf.Program.Socket_filter
          [ mov_i r0 0; exit_ ]
      in
      (match Pipeline.load_ebpf world prog with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "load: %a" Pipeline.pp_error e);
      let s = Registry.snapshot () in
      let names = List.map (fun (e : Event.t) -> e.name) s.Registry.events in
      Alcotest.(check bool) "pipeline stages traced" true
        (List.exists (fun n -> contains n "pipeline") names
        || List.exists (fun n -> contains n "verify") names);
      match Trace_check.validate (Export.to_chrome_trace s) with
      | Ok stats ->
        Alcotest.(check bool) "load produced spans" true (stats.Trace_check.spans > 0)
      | Error reason -> Alcotest.failf "load trace invalid: %s" reason)

(* ---------------- exporter satellites ---------------- *)

(* Satellite (a), part 1: ring drop count AND capacity appear in both the
   JSON and the Prometheus exposition. *)
let test_ring_drops_and_capacity_exported () =
  with_fresh (fun () ->
      Registry.set_trace_capacity 4;
      for i = 1 to 6 do
        Registry.point (Printf.sprintf "p.%d" i)
      done;
      let s = Registry.snapshot () in
      Alcotest.(check int) "two dropped" 2 s.Registry.dropped_events;
      Alcotest.(check int) "capacity surfaced" 4 s.Registry.trace_capacity;
      let json = Export.to_json s in
      Alcotest.(check bool) "json dropped" true (contains json "\"dropped\": 2");
      Alcotest.(check bool) "json capacity" true (contains json "\"capacity\": 4");
      let prom = Export.to_prometheus s in
      Alcotest.(check bool) "prom dropped" true
        (contains prom "untenable_trace_events_dropped 2");
      Alcotest.(check bool) "prom capacity" true
        (contains prom "untenable_trace_ring_capacity 4"))

(* Satellite (a), part 2: a span name containing a quote, a backslash and a
   newline must arrive escaped in Prometheus label values and JSON strings —
   never raw. *)
let test_label_escaping () =
  with_fresh (fun () ->
      let nasty = "sp\"an\\na" ^ "\n" ^ "me" in
      Registry.point nasty;
      let s = Registry.snapshot () in
      let prom = Export.to_prometheus s in
      Alcotest.(check bool) "prom label escaped" true
        (contains prom "untenable_trace_events_total{name=\"sp\\\"an\\\\na\\nme\"} 1");
      (* the exposition format is line-oriented: the raw newline must not
         split the series line in two *)
      Alcotest.(check bool) "no raw newline inside label" false
        (contains prom "sp\"an");
      let json = Export.to_json s in
      Alcotest.(check bool) "json name escaped" true
        (contains json "sp\\\"an\\\\na\\nme");
      Alcotest.(check bool) "json stays parseable as a trace name" true
        (match Trace_check.validate (Export.to_chrome_trace s) with
        | Ok stats -> stats.Trace_check.instants = 1
        | Error _ -> false))

(* Folded-stack export: nested spans collapse to "parent;child count" lines
   weighted by self-time. *)
let test_folded_stacks () =
  with_fresh (fun () ->
      let t = ref 0L in
      Registry.set_clock (fun () -> !t);
      let tick n = t := Int64.add !t n in
      Registry.with_span "outer" (fun () ->
          tick 10L;
          Registry.with_span "inner" (fun () -> tick 4L);
          tick 6L);
      let folded = Export.to_folded (Registry.snapshot ()) in
      Alcotest.(check bool) "child stack" true (contains folded "outer;inner 4");
      Alcotest.(check bool) "parent self-time" true (contains folded "outer 16"))

(* ---------------- verdict-cache counters (satellite b) ---------------- *)

let counter_value s name =
  match List.assoc_opt name s.Registry.counters with Some v -> v | None -> 0

let test_verdict_cache_counters () =
  with_fresh (fun () ->
      let world = World.create_populated () in
      let prog =
        Ebpf.Program.of_items_exn ~name:"cached" ~prog_type:Ebpf.Program.Socket_filter
          [ mov_i r0 0; exit_ ]
      in
      let load () =
        match Pipeline.load_ebpf world prog with
        | Ok _ -> ()
        | Error e -> Alcotest.failf "load: %a" Pipeline.pp_error e
      in
      load ();
      load ();
      let vc = world.World.vcache in
      Alcotest.(check int) "one verdict hit" 1 (Verdict_cache.hits vc);
      Alcotest.(check int) "one verdict miss" 1 (Verdict_cache.misses vc);
      Alcotest.(check int) "no invalidation yet" 0 (Verdict_cache.invalidations vc);
      (* flipping a helper bug changes the fingerprint: same digest, new
         fingerprint — an invalidation, not a cold miss *)
      Bugdb.force_on world.World.bugs "hbug:probe-read-size-unchecked";
      load ();
      Alcotest.(check int) "invalidation counted" 1 (Verdict_cache.invalidations vc);
      Alcotest.(check int) "invalidation is also a miss" 2 (Verdict_cache.misses vc);
      let s = Registry.snapshot () in
      Alcotest.(check int) "cache.hit counter" 1 (counter_value s "cache.hit");
      Alcotest.(check int) "cache.miss counter" 2 (counter_value s "cache.miss");
      Alcotest.(check int) "cache.invalidated counter" 1
        (counter_value s "cache.invalidated"))

(* ---------------- epoch counters ---------------- *)

(* The hot-reload observables: epoch.published / epoch.retired counters,
   the epoch.grace_ns histogram (present in both JSON and Prometheus),
   and cache.cross_epoch_reuse when a verdict survives a swap. *)
let test_epoch_counters () =
  with_fresh (fun () ->
      let world = World.create_populated () in
      let prog =
        Ebpf.Program.of_items_exn ~name:"ep" ~prog_type:Ebpf.Program.Socket_filter
          [ mov_i r0 0; exit_ ]
      in
      (match Pipeline.load_ebpf world prog with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "load: %a" Pipeline.pp_error e);
      (* hold the current epoch across a swap so the grace period is
         nonzero on the virtual clock *)
      let pinned = World.pin world in
      World.set_tail_call world ~index:0 ~prog_id:1;
      Kernel_sim.Vclock.advance world.World.kernel.Kernel_sim.Kernel.clock 300L;
      World.unpin world pinned;
      (* reload the same image after the swap: a cross-epoch cache hit *)
      (match Pipeline.load_ebpf world prog with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "reload: %a" Pipeline.pp_error e);
      let s = Registry.snapshot () in
      Alcotest.(check int) "epoch.published" 3
        (counter_value s "epoch.published");
      Alcotest.(check int) "epoch.retired" 3 (counter_value s "epoch.retired");
      Alcotest.(check int) "cache.cross_epoch_reuse" 1
        (counter_value s "cache.cross_epoch_reuse");
      let grace =
        match List.assoc_opt "epoch.grace_ns" s.Registry.histograms with
        | Some h -> h
        | None -> Alcotest.fail "epoch.grace_ns histogram missing"
      in
      Alcotest.(check int) "every retirement observed a grace period" 3
        (Telemetry.Histogram.count grace);
      Alcotest.(check bool) "pinned swap shows >= 300ns of grace" true
        (Telemetry.Histogram.max_value grace >= 300L);
      let json = Export.to_json s in
      Alcotest.(check bool) "json exports the histogram" true
        (contains json "\"epoch.grace_ns\"");
      Alcotest.(check bool) "json exports the counter" true
        (contains json "\"epoch.published\": 3");
      let prom = Export.to_prometheus s in
      Alcotest.(check bool) "prometheus exports the histogram" true
        (contains prom "untenable_epoch_grace_ns_count 3");
      Alcotest.(check bool) "prometheus exports the counters" true
        (contains prom "untenable_epoch_published 3"
        && contains prom "untenable_epoch_retired 3"
        && contains prom "untenable_cache_cross_epoch_reuse 1"))

(* ---------------- sampling profiler ---------------- *)

let tight_loop =
  Ebpf.Program.of_items_exn ~name:"tight" ~prog_type:Ebpf.Program.Kprobe
    [ mov_i r0 0; mov_i r6 8;
      label "loop";
      add_i r0 1; sub_i r6 1; jne_i r6 0 "loop";
      exit_ ]

let interp_fixture () =
  let world = World.create_populated () in
  let hctx = World.new_hctx world in
  let ctx =
    Kernel_sim.Kmem.alloc world.World.kernel.Kernel_sim.Kernel.mem ~size:64
      ~kind:"ctx" ~name:"test_ctx" ()
  in
  (world, hctx, ctx.Kernel_sim.Kmem.base)

let test_profiler_samples_interp () =
  with_fresh (fun () ->
      let _world, hctx, ctx_addr = interp_fixture () in
      Profiler.set_period 64L;
      for _ = 1 to 50 do
        ignore (Runtime.Interp.run ~hctx ~prog:tight_loop ~ctx_addr ())
      done;
      Profiler.set_period 0L;
      Alcotest.(check bool) "samples landed" true (Profiler.total () > 0);
      let folded = Profiler.to_folded () in
      Alcotest.(check bool) "keys name program, engine, block" true
        (contains folded "tight;interp;block:"))

(* Absolute period boundaries: a run far shorter than one period must still
   contribute — many short runs cross a global boundary eventually. *)
let test_profiler_short_runs_accumulate () =
  with_fresh (fun () ->
      let _world, hctx, ctx_addr = interp_fixture () in
      let one =
        Ebpf.Program.of_items_exn ~name:"one" ~prog_type:Ebpf.Program.Kprobe
          [ mov_i r0 0; exit_ ]
      in
      Profiler.set_period 50L;
      for _ = 1 to 200 do
        ignore (Runtime.Interp.run ~hctx ~prog:one ~ctx_addr ())
      done;
      Profiler.set_period 0L;
      Alcotest.(check bool) "short runs still sampled" true (Profiler.total () > 0))

let test_profiler_off_is_silent () =
  with_fresh (fun () ->
      let _world, hctx, ctx_addr = interp_fixture () in
      Alcotest.(check bool) "disabled by default" false (Profiler.enabled ());
      for _ = 1 to 50 do
        ignore (Runtime.Interp.run ~hctx ~prog:tight_loop ~ctx_addr ())
      done;
      Alcotest.(check int) "no samples while off" 0 (Profiler.total ()))

let test_profiler_samples_jit () =
  with_fresh (fun () ->
      let _world, hctx, ctx_addr = interp_fixture () in
      let jit = Runtime.Jit.compile hctx tight_loop in
      Profiler.set_period 64L;
      for _ = 1 to 50 do
        ignore (Runtime.Jit.run hctx jit ~ctx_addr)
      done;
      Profiler.set_period 0L;
      let folded = Profiler.to_folded () in
      Alcotest.(check bool) "jit samples attributed" true
        (contains folded "tight;jit;block:"))

let suite =
  [
    Alcotest.test_case "dispatch trace round-trips validation" `Quick
      test_dispatch_trace_roundtrip;
    Alcotest.test_case "breaker-open fast-fail closes spans" `Quick
      test_breaker_open_spans_close;
    Alcotest.test_case "pipeline load is traced" `Quick test_load_trace_spans;
    Alcotest.test_case "ring drops and capacity exported" `Quick
      test_ring_drops_and_capacity_exported;
    Alcotest.test_case "label escaping in exports" `Quick test_label_escaping;
    Alcotest.test_case "folded stacks from spans" `Quick test_folded_stacks;
    Alcotest.test_case "verdict-cache counters" `Quick test_verdict_cache_counters;
    Alcotest.test_case "epoch lifecycle counters" `Quick test_epoch_counters;
    Alcotest.test_case "profiler samples the interpreter" `Quick
      test_profiler_samples_interp;
    Alcotest.test_case "short runs accumulate to a sample" `Quick
      test_profiler_short_runs_accumulate;
    Alcotest.test_case "profiler off takes no samples" `Quick
      test_profiler_off_is_silent;
    Alcotest.test_case "profiler samples the jit" `Quick test_profiler_samples_jit;
  ]
