(* The observability layer end to end: drive a short supervised packet
   stream with the sampling profiler armed, then show the three artefacts
   it leaves behind — a Perfetto-loadable causal trace (validated by the
   standalone parser before we claim anything about it), flamegraph-ready
   folded stacks from the profiler, and a per-extension health scorecard
   with the verdict-cache tallies.

   Run with: dune exec examples/observability_demo.exe *)

open Untenable
module World = Framework.World
module Pipeline = Framework.Pipeline
module Serve = Framework.Serve
module Attach = Framework.Attach
module Supervisor = Framework.Supervisor
module Verdict_cache = Framework.Verdict_cache
module Registry = Telemetry.Registry
module Profiler = Telemetry.Profiler
module Export = Telemetry.Export
module Trace_check = Telemetry.Trace_check
open Ebpf.Asm

let filters =
  [ ("len", [ ldxw r0 r1 0; exit_ ]);
    ("parity", [ ldxw r6 r1 0; mov_r r0 r6; and_i r0 1; exit_ ]);
    ("proto", [ ldxw r6 r1 4; mov_r r0 r6; and_i r0 0xff; exit_ ]) ]

let events = 300

let () =
  Registry.set_enabled true;
  (* size the trace ring for the whole stream: the ring drops newest on
     overflow, and a dropped Exit would orphan its span in the export *)
  Registry.set_trace_capacity ((events * ((List.length filters * 8) + 8)) + 256);
  Registry.reset ();
  let world = World.create_populated () in
  let engine = Serve.create world in
  List.iter
    (fun (name, items) ->
      match
        Pipeline.load_ebpf world
          (Ebpf.Program.of_items_exn ~name ~prog_type:Ebpf.Program.Socket_filter
             items)
      with
      | Ok loaded -> ignore (Attach.attach engine.Serve.attach ~hook:"xdp" loaded)
      | Error e -> Format.kasprintf failwith "load %s: %a" name Pipeline.pp_error e)
    filters;

  (* arm the profiler for the stream; disarm no matter what *)
  Profiler.reset ();
  Profiler.set_period 64L;
  let r =
    Fun.protect
      ~finally:(fun () -> Profiler.set_period 0L)
      (fun () ->
        Serve.run engine
          (Serve.plan ~seed:42L ~size:64 ~hook:"xdp" ~count:events ()))
  in
  Format.printf "stream: %a@." Serve.pp_stats r;

  (* 1. causal trace: export, then re-validate from the exported text *)
  let trace = Export.to_chrome_trace (Registry.snapshot ()) in
  (match Trace_check.validate trace with
  | Ok s ->
    Printf.printf "trace: %d events, %d spans over %d lanes, max depth %d — OK\n"
      s.Trace_check.events s.Trace_check.spans s.Trace_check.traces
      s.Trace_check.max_depth
  | Error reason -> failwith ("trace export failed validation: " ^ reason));

  (* 2. profiler: folded stacks, ready for flamegraph.pl *)
  Printf.printf "\nprofiler: %d samples (period 64ns on the Vclock)\n"
    (Profiler.total ());
  print_string (Profiler.to_folded ());

  (* 3. scorecard: per-extension health + the verdict-cache tallies *)
  Printf.printf "\nhealth:\n";
  List.iter
    (fun (h : Supervisor.health) ->
      Printf.printf "  %-8s %4d inv  p50 %Ldns  p99 %Ldns\n" h.Supervisor.name
        h.Supervisor.invocations h.Supervisor.p50_ns h.Supervisor.p99_ns)
    r.Serve.per_ext;
  let vc = world.World.vcache in
  Printf.printf "verdict cache: %d hits / %d misses (%d invalidated)\n"
    (Verdict_cache.hits vc) (Verdict_cache.misses vc)
    (Verdict_cache.invalidations vc)
