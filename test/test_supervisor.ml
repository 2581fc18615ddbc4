(* Supervisor tests: the circuit-breaker state machine in isolation (every
   transition, the backoff schedule, the quarantine budget), the chaos
   schedule's determinism, and the dispatch integration — a crashing
   extension must not perturb what healthy extensions compute. *)

open Untenable
module World = Framework.World
module Serve = Framework.Serve
module Supervisor = Framework.Supervisor
module Chaos = Framework.Chaos
module Attach = Framework.Attach
module Kernel = Kernel_sim.Kernel
module Bugdb = Helpers.Bugdb

(* The crasher/healthy populations and the engine factory live in the
   shared scaffolding (Generators). *)
let healthy_filters = Generators.healthy_filters
let build_engine = Generators.build_population_engine

(* ---------------- the breaker state machine, no engine ---------------- *)

let test_cfg =
  { Supervisor.window = 8;
    fault_threshold = 3;
    cooldown_ns = 100L;
    backoff = 2.0;
    max_cooldown_ns = 1_000L;
    quarantine_after = 99 (* out of the way unless a test wants it *) }

let fresh ?(config = test_cfg) () =
  let sup = Supervisor.create ~config () in
  (sup, Supervisor.ext sup ~attach_id:0 ~name:"probe")

let test_trips_at_threshold () =
  let sup, e = fresh () in
  Alcotest.(check bool) "starts executing" true
    (Supervisor.decide sup e ~now_ns:0L = Supervisor.Execute);
  (match Supervisor.observe_fault sup e ~now_ns:0L with
  | Supervisor.No_change -> ()
  | _ -> Alcotest.fail "tripped after 1 fault");
  (match Supervisor.observe_fault sup e ~now_ns:0L with
  | Supervisor.No_change -> ()
  | _ -> Alcotest.fail "tripped after 2 faults");
  (match Supervisor.observe_fault sup e ~now_ns:10L with
  | Supervisor.Tripped { until_ns; trip } ->
    Alcotest.(check int) "first trip" 1 trip;
    Alcotest.(check int64) "base cooldown" 110L until_ns
  | _ -> Alcotest.fail "threshold fault did not trip");
  Alcotest.(check bool) "open: skipped" true
    (Supervisor.decide sup e ~now_ns:50L = Supervisor.Skip);
  Alcotest.(check bool) "cooldown elapsed: probe" true
    (Supervisor.decide sup e ~now_ns:110L = Supervisor.Probe);
  Alcotest.(check bool) "now half-open" true (e.Supervisor.state = Supervisor.Half_open)

let test_window_slides () =
  let sup, e = fresh ~config:{ test_cfg with Supervisor.window = 3 } () in
  ignore (Supervisor.observe_fault sup e ~now_ns:0L);
  ignore (Supervisor.observe_fault sup e ~now_ns:0L);
  (* three clean observations push both faults out of the window *)
  Supervisor.observe_ok sup e ~now_ns:0L;
  Supervisor.observe_ok sup e ~now_ns:0L;
  Supervisor.observe_ok sup e ~now_ns:0L;
  (match Supervisor.observe_fault sup e ~now_ns:0L with
  | Supervisor.No_change -> ()
  | _ -> Alcotest.fail "stale faults counted against the window");
  Alcotest.(check bool) "still closed" true (e.Supervisor.state = Supervisor.Closed)

let test_probe_recovery_closes () =
  let sup, e = fresh () in
  for _ = 1 to 3 do ignore (Supervisor.observe_fault sup e ~now_ns:0L) done;
  Alcotest.(check bool) "probe offered" true
    (Supervisor.decide sup e ~now_ns:1_000L = Supervisor.Probe);
  Supervisor.observe_ok sup e ~now_ns:1_000L;
  Alcotest.(check bool) "probe ok closes" true
    (e.Supervisor.state = Supervisor.Closed);
  (* the fault window restarts: one new fault must not re-trip *)
  (match Supervisor.observe_fault sup e ~now_ns:1_001L with
  | Supervisor.No_change -> ()
  | _ -> Alcotest.fail "window not reset after recovery")

let test_probe_failure_backs_off () =
  let sup, e = fresh () in
  for _ = 1 to 3 do ignore (Supervisor.observe_fault sup e ~now_ns:0L) done;
  ignore (Supervisor.decide sup e ~now_ns:200L);
  (match Supervisor.observe_fault sup e ~now_ns:200L with
  | Supervisor.Tripped { until_ns; trip } ->
    Alcotest.(check int) "second trip" 2 trip;
    Alcotest.(check int64) "cooldown doubled" 400L until_ns
  | _ -> Alcotest.fail "failed probe did not re-trip")

let test_cooldown_schedule () =
  let c = test_cfg in
  Alcotest.(check int64) "trip 1" 100L (Supervisor.cooldown_for c ~trip:1);
  Alcotest.(check int64) "trip 2" 200L (Supervisor.cooldown_for c ~trip:2);
  Alcotest.(check int64) "trip 3" 400L (Supervisor.cooldown_for c ~trip:3);
  Alcotest.(check int64) "trip 4" 800L (Supervisor.cooldown_for c ~trip:4);
  Alcotest.(check int64) "trip 5 capped" 1_000L (Supervisor.cooldown_for c ~trip:5);
  Alcotest.(check int64) "trip 20 capped" 1_000L (Supervisor.cooldown_for c ~trip:20)

let test_quarantine_budget () =
  let sup, e =
    fresh ~config:{ test_cfg with Supervisor.quarantine_after = 2 } ()
  in
  for _ = 1 to 3 do ignore (Supervisor.observe_fault sup e ~now_ns:0L) done;
  ignore (Supervisor.decide sup e ~now_ns:200L);
  (match Supervisor.observe_fault sup e ~now_ns:200L with
  | Supervisor.Quarantine -> ()
  | _ -> Alcotest.fail "trip budget spent but no quarantine");
  Alcotest.(check bool) "state quarantined" true
    (e.Supervisor.state = Supervisor.Quarantined);
  Alcotest.(check bool) "always skipped" true
    (Supervisor.decide sup e ~now_ns:1_000_000L = Supervisor.Skip);
  let h = Supervisor.health_of_ext e in
  Alcotest.(check bool) "health reports quarantine" true h.Supervisor.quarantined;
  (* further faults are a no-op, not a crash *)
  match Supervisor.observe_fault sup e ~now_ns:300L with
  | Supervisor.No_change -> ()
  | _ -> Alcotest.fail "quarantined ext transitioned again"

(* ---------------- the chaos schedule ---------------- *)

let test_chaos_pure () =
  let c = { Chaos.default_config with Chaos.fault_rate = 0.05 } in
  for i = 0 to 499 do
    Alcotest.(check string)
      (Printf.sprintf "event %d stable" i)
      (Chaos.describe (Chaos.injection c ~event:i))
      (Chaos.describe (Chaos.injection c ~event:i))
  done;
  let n = ref 0 in
  for i = 0 to 499 do
    if Chaos.injection c ~event:i <> Chaos.Calm then incr n
  done;
  Alcotest.(check int) "planned matches schedule" !n (Chaos.planned c ~count:500);
  Alcotest.(check bool) "rate roughly honoured" true (!n > 0 && !n < 100)

let test_chaos_rate_edges () =
  let calm = { Chaos.default_config with Chaos.fault_rate = 0. } in
  Alcotest.(check int) "rate 0: no injections" 0 (Chaos.planned calm ~count:200);
  let storm = { Chaos.default_config with Chaos.fault_rate = 1. } in
  Alcotest.(check int) "rate 1: every event" 200 (Chaos.planned storm ~count:200)

let test_chaos_disarm_unpins () =
  (* disarm must not pin the bug off: a later force_on must still win *)
  let world = World.create_populated () in
  let key = "hbug:probe-read-size-unchecked" in
  let inj = Chaos.Helper_bug key in
  Chaos.arm inj world.World.bugs;
  Chaos.disarm inj world.World.bugs;
  Bugdb.force_on world.World.bugs key;
  Alcotest.(check bool) "force_on after disarm sticks" true
    (Bugdb.active world.World.bugs key)

let test_chaos_disarm_keeps_caller_overrides () =
  (* disarm undoes only its own force_on: the caller's overrides survive *)
  let world = World.create_populated () in
  let bugs = world.World.bugs in
  let on_key = "hbug:probe-read-size-unchecked" in
  let off_key = "hbug:cve-2022-2785-sys-bpf" (* on by version *) in
  Bugdb.force_on bugs on_key;
  Bugdb.force_off bugs off_key;
  List.iter
    (fun key ->
      let inj = Chaos.Helper_bug key in
      Chaos.arm inj bugs;
      Chaos.disarm inj bugs)
    [ on_key; off_key ];
  Alcotest.(check bool) "caller's force_on still active" true
    (Bugdb.active bugs on_key);
  Alcotest.(check bool) "caller's force_off still inactive" false
    (Bugdb.active bugs off_key)

(* ---------------- serving integration ---------------- *)

(* A compact view of a one-domain Serve run: just the fields these tests
   assert on, so the call sites stay readable. *)
type run_result = {
  events : int;
  invocations : int;
  crashed : int;
  faults_absorbed : int;
  quarantined : int;
  injected : int;
  ret_checksum : int64;
  per_ext : Supervisor.health list;
}

let run ?chaos ~count engine =
  let s =
    Serve.run engine (Serve.plan ?chaos ~seed:7L ~size:32 ~hook:"xdp" ~count ())
  in
  let t = s.Serve.totals in
  { events = t.Serve.events;
    invocations = t.Serve.invocations;
    crashed = t.Serve.crashed;
    faults_absorbed = t.Serve.faults_absorbed;
    quarantined = t.Serve.quarantined;
    injected = t.Serve.injected;
    ret_checksum = t.Serve.ret_checksum;
    per_ext = s.Serve.per_ext }

let health_by name (r : run_result) =
  match
    List.find_opt
      (fun (h : Supervisor.health) -> String.equal h.Supervisor.name name)
      r.per_ext
  with
  | Some h -> h
  | None -> Alcotest.failf "no per-ext health for %s" name

let test_isolate_contains () =
  let engine = build_engine ~with_crasher:true () in
  let r = run ~count:25 engine in
  Alcotest.(check int) "all events served" 25 r.events;
  Alcotest.(check int) "every invocation ran" 75 r.invocations;
  Alcotest.(check int) "crasher crashed every time" 25 r.crashed;
  Alcotest.(check int) "every fault absorbed" 25 r.faults_absorbed;
  Alcotest.(check int) "no quarantine under Isolate" 0 r.quarantined;
  Alcotest.(check int) "crasher tally" 25 (health_by "crasher" r).Supervisor.crashed;
  Alcotest.(check int) "healthy tally" 25 (health_by "len" r).Supervisor.finished;
  Alcotest.(check bool) "kernel alive at end" false
    (Kernel.is_dead engine.Serve.world.World.kernel)

let test_supervise_quarantines () =
  let config =
    { Supervisor.default_config with
      Supervisor.cooldown_ns = 1L (* expire by the next event *);
      max_cooldown_ns = 4L }
  in
  let engine =
    build_engine ~policy:(Serve.Supervise config) ~with_crasher:true ()
  in
  let count = 60 in
  let r = run ~count engine in
  let baseline = run ~count (build_engine ~with_crasher:false ()) in
  Alcotest.(check int) "all events served" count r.events;
  Alcotest.(check int) "offender quarantined" 1 r.quarantined;
  let c = health_by "crasher" r in
  Alcotest.(check bool) "crasher marked quarantined" true c.Supervisor.quarantined;
  Alcotest.(check int) "trip budget spent" config.Supervisor.quarantine_after
    c.Supervisor.trips;
  Alcotest.(check bool) "crasher stopped being invoked" true
    (c.Supervisor.invocations < count);
  Alcotest.(check int) "offender detached from the hook"
    (List.length healthy_filters)
    (Attach.count engine.Serve.attach);
  (* the healthy population computed exactly what a crasher-free run does *)
  List.iter
    (fun (name, _) ->
      Alcotest.(check int64)
        (name ^ " checksum matches crasher-free run")
        (health_by name baseline).Supervisor.ret_checksum
        (health_by name r).Supervisor.ret_checksum;
      Alcotest.(check int)
        (name ^ " served every event")
        count
        (health_by name r).Supervisor.invocations)
    healthy_filters;
  Alcotest.(check bool) "kernel alive at end" false
    (Kernel.is_dead engine.Serve.world.World.kernel)

let test_fail_fast_aborts () =
  let engine = build_engine ~policy:Serve.Fail_fast ~with_crasher:true () in
  let r = run ~count:10 engine in
  Alcotest.(check int) "stream aborted on first crash" 1 r.events;
  Alcotest.(check int) "one crash" 1 r.crashed;
  Alcotest.(check int) "nothing absorbed" 0 r.faults_absorbed;
  Alcotest.(check bool) "kernel stays dead" true
    (Kernel.is_dead engine.Serve.world.World.kernel)

let test_chaos_dispatch_deterministic () =
  let chaos = { Chaos.default_config with Chaos.fault_rate = 0.2 } in
  let go () = run ~chaos ~count:120 (build_engine ~with_crasher:false ()) in
  let r1 = go () and r2 = go () in
  Alcotest.(check int) "same injections" r1.injected r2.injected;
  Alcotest.(check bool) "chaos actually landed" true (r1.injected > 0);
  Alcotest.(check int64) "identical checksums" r1.ret_checksum
    r2.ret_checksum;
  Alcotest.(check int) "all events served" 120 r1.events

(* Property: under Isolate, an always-crashing extension is invisible to the
   healthy population — their per-extension checksums match a crasher-free
   run event for event. *)
let isolate_equivalence_property =
  QCheck.Test.make ~count:25 ~name:"Isolate: crasher invisible to healthy exts"
    QCheck.(pair (int_range 1 40) (int_range 0 1000))
    (fun (count, _salt) ->
      let with_c = run ~count (build_engine ~with_crasher:true ()) in
      let without = run ~count (build_engine ~with_crasher:false ()) in
      with_c.events = count
      && List.for_all
           (fun (name, _) ->
             Int64.equal
               (health_by name with_c).Supervisor.ret_checksum
               (health_by name without).Supervisor.ret_checksum)
           healthy_filters)

let suite =
  [
    Alcotest.test_case "breaker trips at threshold" `Quick test_trips_at_threshold;
    Alcotest.test_case "fault window slides" `Quick test_window_slides;
    Alcotest.test_case "probe recovery closes" `Quick test_probe_recovery_closes;
    Alcotest.test_case "probe failure backs off" `Quick test_probe_failure_backs_off;
    Alcotest.test_case "cooldown schedule" `Quick test_cooldown_schedule;
    Alcotest.test_case "quarantine budget" `Quick test_quarantine_budget;
    Alcotest.test_case "chaos schedule is pure" `Quick test_chaos_pure;
    Alcotest.test_case "chaos rate edges" `Quick test_chaos_rate_edges;
    Alcotest.test_case "chaos disarm unpins the bug" `Quick test_chaos_disarm_unpins;
    Alcotest.test_case "chaos disarm keeps caller overrides" `Quick
      test_chaos_disarm_keeps_caller_overrides;
    Alcotest.test_case "Isolate contains a crasher" `Quick test_isolate_contains;
    Alcotest.test_case "Supervise quarantines the offender" `Quick
      test_supervise_quarantines;
    Alcotest.test_case "Fail_fast aborts the stream" `Quick test_fail_fast_aborts;
    Alcotest.test_case "chaos dispatch is deterministic" `Quick
      test_chaos_dispatch_deterministic;
    QCheck_alcotest.to_alcotest isolate_equivalence_property;
  ]
