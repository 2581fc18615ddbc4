(* The untenable command-line tool.

     untenable-cli helpers [--version VER]   list the helper table
     untenable-cli audit                     call-graph audit (Fig. 3 data)
     untenable-cli demos                     list the exploit corpus
     untenable-cli demo ID [--fixed]         run one exploit demo
     untenable-cli serve [--events N]        serve a stream through a filter
                   [--filters N] [--jit]     population with scripted hot
                   [--reloads N]             reloads (epoch swaps under live
                   [--domains N]             serving), sharded across OCaml
                   [--policy P]              domains with --domains > 1; then
                   [--chaos-rate R]          the totals, per-shard and
                   [--crasher]               per-extension tables and the
                   [--trace FILE]            epoch-transition table (optionally
                                             writing a Perfetto trace)
     untenable-cli profile [--period NS]     sampled block-level profile plus
                   [--events N] [--jit]      per-helper latency histograms
     untenable-cli flame [--samples]         folded stacks (span self-time or
                                             profiler samples) for flamegraph.pl
     untenable-cli top [--events N]          per-extension health scorecard:
                   [--chaos-rate R]          p50/p99, crash/exhaust rates,
                                             breaker state, cache hit ratio
     untenable-cli trace-check FILE          validate a Chrome trace-event file
     untenable-cli matrix                    executable Table 2
     untenable-cli datasets                  the paper's static datasets
     untenable-cli stats [ID] [--format F]   telemetry snapshot (last demo or ID)
     untenable-cli trace ID [--fixed]        run a demo, print its trace timeline
     untenable-cli lint [NAME]               run the static-analysis passes over
                   [--no-resource]           the built-in lint corpus (or one
                   [--no-lock] [--no-elide]  program) and print the findings
                   [--no-bound]
     untenable-cli bound [--jit]             static cost & termination analysis
                                             over the bound corpus: loop trip
                                             counts, worst-case bounds, and the
                                             max observed retired-insn count
     untenable-cli fuzz [--seed N]           differential fuzzing: generate
                   [--budget N]              seeded programs, cross-check every
                   [--matrix M] [--dist D]   execution mode against the others,
                   [--replay FILE]           shrink + persist divergences (or
                   [--plant-jit-bug]         replay one corpus counterexample)
                   [--corpus DIR]
*)

open Untenable
open Cmdliner
module Serve = Framework.Serve

let version_arg =
  let parse s =
    match Kerndata.Kver.of_string s with
    | Some v -> Ok v
    | None -> Error (`Msg (Printf.sprintf "unknown kernel version %S" s))
  in
  let print ppf v = Format.fprintf ppf "%s" (Kerndata.Kver.to_string v) in
  Arg.conv (parse, print)

(* ---- helpers ---- *)

let helpers_cmd =
  let run version =
    let defs = Helpers.Registry.available ~version in
    Printf.printf "%d helpers available in %s:\n" (List.length defs)
      (Kerndata.Kver.to_string version);
    List.iter
      (fun (d : Helpers.Registry.def) ->
        Printf.printf "  %3d  %-28s since %-6s callgraph=%-5d %s\n" d.id d.name
          (Kerndata.Kver.to_string d.introduced)
          d.callgraph_nodes
          (match d.disposition with
          | Some disp -> "[" ^ Kerndata.Retirement.disposition_to_string disp ^ "]"
          | None -> ""))
      (List.sort (fun a b -> compare a.Helpers.Registry.id b.Helpers.Registry.id) defs)
  in
  let version =
    Arg.(value & opt version_arg Kerndata.Kver.V5_18 & info [ "version" ] ~doc:"Kernel version.")
  in
  Cmd.v (Cmd.info "helpers" ~doc:"List the helper-function table")
    Term.(const run $ version)

(* ---- audit ---- *)

let audit_cmd =
  let run () =
    let dist = Callgraph.Analysis.measure (Callgraph.Kernel_graph.build ()) in
    Printf.printf
      "helper call-graph complexity (%d helpers): min=%d median=%d mean=%.0f max=%d\n"
      dist.Callgraph.Analysis.n dist.Callgraph.Analysis.min_nodes
      dist.Callgraph.Analysis.median dist.Callgraph.Analysis.mean
      dist.Callgraph.Analysis.max_nodes;
    Printf.printf "30+ nodes: %.1f%%  500+ nodes: %.1f%% (paper: 52.2%% / 34.5%%)\n"
      (100. *. dist.Callgraph.Analysis.share_ge30)
      (100. *. dist.Callgraph.Analysis.share_ge500)
  in
  Cmd.v (Cmd.info "audit" ~doc:"Audit helper call-graph complexity (Figure 3)")
    Term.(const run $ const ())

(* ---- demos ---- *)

let demos_cmd =
  let run () =
    List.iter
      (fun (d : Framework.Exploits.demo) ->
        Printf.printf "  %-36s [%s] %s\n" d.id d.bug_class d.title)
      Framework.Exploits.all
  in
  Cmd.v (Cmd.info "demos" ~doc:"List the exploit corpus")
    Term.(const run $ const ())

(* Where `demo` leaves its telemetry snapshot for a later `stats` invocation
   (separate process, so the registry itself does not survive). *)
let snapshot_file = ".untenable-telemetry"

let run_demo_exn id fixed =
  match Framework.Exploits.find id with
  | None ->
    Printf.eprintf "unknown demo %S (see `untenable-cli demos`)\n" id;
    exit 1
  | Some d -> (d, d.Framework.Exploits.run ~vulnerable:(not fixed))

let save_snapshot () =
  try Telemetry.Export.save_file (Telemetry.Registry.snapshot ()) snapshot_file
  with Sys_error _ -> ()

let demo_cmd =
  let run id fixed =
    let d, r = run_demo_exn id fixed in
    Printf.printf "%s\n  load: %s\n  run:  %s\n  kernel dead: %b\n  attack: %s\n"
      d.Framework.Exploits.title r.Framework.Exploits.gate
      r.Framework.Exploits.runtime r.Framework.Exploits.kernel_dead
      (if r.Framework.Exploits.attack_succeeded then "SUCCEEDED" else "defeated");
    save_snapshot ();
    Printf.printf "  (telemetry snapshot saved; inspect with `untenable-cli stats`)\n"
  in
  let id = Arg.(required & pos 0 (some string) None & info [] ~docv:"ID") in
  let fixed =
    Arg.(value & flag & info [ "fixed" ] ~doc:"Run against the fixed/guarded kernel.")
  in
  Cmd.v (Cmd.info "demo" ~doc:"Run one exploit demo") Term.(const run $ id $ fixed)

(* ---- stats / trace ---- *)

let format_arg =
  Arg.(
    value
    & opt (enum [ ("table", `Table); ("json", `Json); ("prometheus", `Prometheus) ]) `Table
    & info [ "format" ] ~docv:"FORMAT" ~doc:"Output format: table, json or prometheus.")

let render_snapshot fmt (s : Telemetry.Registry.snapshot) =
  match fmt with
  | `Table -> Format.printf "%a" (Telemetry.Export.pp_table ~all:false) s
  | `Json -> print_string (Telemetry.Export.to_json s)
  | `Prometheus -> print_string (Telemetry.Export.to_prometheus s)

let stats_cmd =
  let run id fixed fmt =
    match id with
    | Some id ->
      (* run the demo in-process and dump the registry *)
      Telemetry.Registry.reset ();
      let _d, _r = run_demo_exn id fixed in
      render_snapshot fmt (Telemetry.Registry.snapshot ())
    | None -> (
      (* no demo given: show the snapshot the last `demo` run left behind *)
      match Telemetry.Export.load_file snapshot_file with
      | s -> render_snapshot fmt s
      | exception Sys_error _ ->
        Printf.eprintf
          "no telemetry snapshot found (run `untenable-cli demo ID` first, or pass a \
           demo ID to `stats`)\n";
        exit 1
      | exception Failure msg ->
        Printf.eprintf "telemetry snapshot %s is unreadable: %s\n" snapshot_file
          msg;
        exit 1
      | exception e ->
        Printf.eprintf
          "telemetry snapshot %s is truncated or corrupt (%s); re-run a demo to \
           regenerate it\n"
          snapshot_file (Printexc.to_string e);
        exit 1)
  in
  let id = Arg.(value & pos 0 (some string) None & info [] ~docv:"ID") in
  let fixed =
    Arg.(value & flag & info [ "fixed" ] ~doc:"Run against the fixed/guarded kernel.")
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:"Dump the telemetry snapshot (of the last demo, or of demo ID run in-process)")
    Term.(const run $ id $ fixed $ format_arg)

let trace_cmd =
  let run id fixed =
    Telemetry.Registry.reset ();
    let d, _r = run_demo_exn id fixed in
    let s = Telemetry.Registry.snapshot () in
    Printf.printf "trace timeline for %s:\n" d.Framework.Exploits.id;
    Format.printf "%a" Telemetry.Export.pp_timeline s
  in
  let id = Arg.(required & pos 0 (some string) None & info [] ~docv:"ID") in
  let fixed =
    Arg.(value & flag & info [ "fixed" ] ~doc:"Run against the fixed/guarded kernel.")
  in
  Cmd.v (Cmd.info "trace" ~doc:"Run an exploit demo and print its trace-event timeline")
    Term.(const run $ id $ fixed)

(* ---- matrix ---- *)

let matrix_cmd =
  let run () =
    let rows = Framework.Safety_matrix.rows () in
    print_string
      (Framework.Report.table
         ~header:[ "Safety property"; "Enforcement"; "Upheld" ]
         (List.map
            (fun (r : Framework.Safety_matrix.row) ->
              [ r.property;
                Kerndata.Safety_props.mechanism_to_string r.mechanism;
                Framework.Report.check r.upheld ])
            rows))
  in
  Cmd.v (Cmd.info "matrix" ~doc:"Run the executable Table 2 safety matrix")
    Term.(const run $ const ())

(* ---- datasets ---- *)

let datasets_cmd =
  let run () =
    Printf.printf "Figure 2 — verifier LoC by version:\n";
    List.iter
      (fun (p : Kerndata.Verifier_loc.point) ->
        Printf.printf "  %-6s %6d  %s\n" (Kerndata.Kver.to_string p.version) p.loc
          (String.concat "; " p.features_added))
      Kerndata.Verifier_loc.series;
    Printf.printf "\nFigure 4 — helper count by version:\n";
    List.iter
      (fun (p : Kerndata.Helper_history.point) ->
        Printf.printf "  %-6s %4d\n" (Kerndata.Kver.to_string p.version) p.count)
      Kerndata.Helper_history.series;
    Printf.printf "\nTable 1 — bug classes (2021-2022):\n";
    List.iter
      (fun (c : Kerndata.Bug_stats.clazz) ->
        Printf.printf "  %-28s total=%2d helper=%2d verifier=%2d\n" c.name c.total
          c.in_helpers c.in_verifier)
      Kerndata.Bug_stats.classes
  in
  Cmd.v (Cmd.info "datasets" ~doc:"Print the paper's static datasets")
    Term.(const run $ const ())

(* ---- serve ---- *)

(* Load a program through the pipeline and attach it to the engine's xdp
   hook, or exit on rejection. *)
let attach_prog engine name ~prog_type items =
  let world = engine.Serve.world in
  let prog = Ebpf.Program.of_items_exn ~name ~prog_type items in
  match Framework.Pipeline.load_ebpf world prog with
  | Ok loaded ->
    ignore (Framework.Attach.attach engine.Serve.attach ~hook:"xdp" loaded)
  | Error e ->
    Format.eprintf "load failed: %a@." Framework.Pipeline.pp_error e;
    exit 1

(* The rotating filter population shared by serve / profile / flame:
   length, parity-of-length, first byte — plus (when [with_helper]) a
   kprobe that calls a helper, so the per-helper latency histograms have
   something to show. *)
let attach_filters ?(with_helper = false) engine ~filters =
  let open Ebpf.Asm in
  let bodies =
    [| ("len", [ ldxw r0 r1 0; exit_ ]);
       ("parity", [ ldxw r6 r1 0; mov_r r0 r6; and_i r0 1; exit_ ]);
       ("proto", [ ldxw r0 r1 4; exit_ ]) |]
  in
  for i = 0 to filters - 1 do
    let name, items = bodies.(i mod Array.length bodies) in
    attach_prog engine (Printf.sprintf "%s%d" name i)
      ~prog_type:Ebpf.Program.Socket_filter items
  done;
  if with_helper then begin
    let h = Helpers.Registry.id_of_name in
    attach_prog engine "ktime" ~prog_type:Ebpf.Program.Kprobe
      [ call (h "bpf_ktime_get_ns"); mov_i r0 0; exit_ ]
  end

(* The §2.2 probe-read vehicle: verifier-accepted, crashes on every call
   once its helper bug is armed in the world's Bugdb. *)
let attach_crasher engine =
  let open Ebpf.Asm in
  let h = Helpers.Registry.id_of_name in
  Helpers.Bugdb.force_on engine.Serve.world.Framework.World.bugs
    "hbug:probe-read-size-unchecked";
  attach_prog engine "crasher" ~prog_type:Ebpf.Program.Kprobe
    [ call (h "bpf_get_current_task"); mov_r r3 r0; mov_r r1 r10;
      add_i r1 (-16); mov_i r2 16; call (h "bpf_probe_read_kernel");
      mov_i r0 0; exit_ ]

(* Supervision with a cooldown short enough to see quarantine inside one
   stream. *)
let supervise_policy =
  Serve.Supervise
    { Framework.Supervisor.default_config with
      Framework.Supervisor.cooldown_ns = 100L;
      max_cooldown_ns = 1_000L }

(* Write the retained span tree as Chrome trace-event JSON and prove it
   Perfetto-loadable before declaring success: an unbalanced file (e.g.
   from ring overflow) is worse than no file. *)
let write_chrome_trace path =
  let text = Telemetry.Export.to_chrome_trace (Telemetry.Registry.snapshot ()) in
  let oc = open_out path in
  output_string oc text;
  close_out oc;
  match Telemetry.Trace_check.validate text with
  | Ok st ->
    Printf.printf
      "trace: %s — %d events, %d spans, %d instants, %d lanes, max depth %d \
       (perfetto-valid)\n"
      path st.Telemetry.Trace_check.events st.Telemetry.Trace_check.spans
      st.Telemetry.Trace_check.instants st.Telemetry.Trace_check.traces
      st.Telemetry.Trace_check.max_depth
  | Error msg ->
    Printf.eprintf "trace: %s is NOT a valid trace-event file: %s\n" path msg;
    exit 1

let serve_cmd =
  let run events reloads filters size seed domains jit trace_out policy
      chaos_rate crasher =
    (* tracing to a file needs every Enter matched by a retained Exit, so
       size the ring for the whole stream instead of the default window *)
    (match trace_out with
    | Some _ ->
      Telemetry.Registry.set_trace_capacity
        (max Telemetry.Registry.default_trace_capacity
           ((events * (((filters + 2) * 8) + 8)) + 256))
    | None -> ());
    let world = Framework.World.create_populated () in
    let opts = { Framework.Invoke.default_opts with Framework.Invoke.use_jit = jit } in
    let engine = Serve.create ~opts ~policy world in
    if crasher then attach_crasher engine;
    attach_filters engine ~filters;
    (* the scripted reload schedule: at evenly spaced event boundaries,
       alternately hot-load + attach a fresh filter (verified inside the
       swap, staged on the epoch builder) and unload + detach the previous
       hot one — both publish exactly one epoch *)
    let last_hot = ref None in
    let plan k (e : Serve.engine) b =
      match !last_hot with
      | Some (attach_id, prog_id) when k mod 2 = 1 ->
        ignore (Framework.Attach.detach e.Serve.attach ~attach_id);
        ignore (Framework.Epoch.unload b ~prog_id);
        last_hot := None
      | _ -> (
        let name = Printf.sprintf "hot%d" k in
        let prog =
          Ebpf.Asm.(
            Ebpf.Program.of_items_exn ~name
              ~prog_type:Ebpf.Program.Socket_filter
              [ mov_i r0 (100 + k); exit_ ])
        in
        match Framework.Pipeline.load_ebpf ~into:b world prog with
        | Ok (Framework.Pipeline.Ebpf_prog { prog_id; _ } as loaded) ->
          let a = Framework.Attach.attach e.Serve.attach ~hook:"xdp" loaded in
          last_hot := Some (a.Framework.Attach.attach_id, prog_id)
        | Ok _ -> ()
        | Error err ->
          Format.eprintf "hot load failed: %a@." Framework.Pipeline.pp_error err)
    in
    let reload =
      List.init reloads (fun k -> (((k + 1) * events) / (reloads + 1), plan k))
    in
    let chaos =
      if chaos_rate <= 0. then None
      else
        Some { Framework.Chaos.default_config with Framework.Chaos.fault_rate = chaos_rate }
    in
    (match chaos with
    | Some c ->
      Printf.printf "chaos: %.2f%% fault rate, %d of %d events carry an injection\n"
        (c.Framework.Chaos.fault_rate *. 100.)
        (Framework.Chaos.planned c ~count:events)
        events
    | None -> ());
    Printf.printf "serving %d events with %d scripted reloads over %d domain%s...\n"
      events reloads domains
      (if domains = 1 then "" else "s");
    let stats =
      Serve.run engine
        (Serve.plan ?chaos ~seed ~size ~domains ~reloads:reload ~hook:"xdp"
           ~count:events ())
    in
    Format.printf "%a@." Serve.pp_stats stats;
    (match stats.Serve.per_shard with
    | [] -> ()
    | shards ->
      Printf.printf "\nper-shard:\n";
      print_string
        (Framework.Report.table
           ~header:[ "shard"; "events"; "inv"; "ok"; "crash"; "skip"; "drop";
                     "qpeak"; "waits" ]
           (List.map
              (fun (sh : Serve.shard_stats) ->
                let t = sh.Serve.s_totals in
                [ string_of_int sh.Serve.shard;
                  string_of_int t.Serve.events;
                  string_of_int t.Serve.invocations;
                  string_of_int t.Serve.finished;
                  string_of_int t.Serve.crashed;
                  string_of_int t.Serve.skipped;
                  string_of_int sh.Serve.s_dropped;
                  string_of_int sh.Serve.s_queue_peak;
                  string_of_int sh.Serve.s_backpressure_waits ])
              shards)));
    (* faults in play: show what supervision made of them *)
    if crasher || chaos <> None || policy <> Serve.Isolate then begin
      Printf.printf "\nper-extension health:\n";
      print_string
        (Framework.Report.table
           ~header:[ "#"; "extension"; "state"; "inv"; "ok"; "stop"; "crash";
                     "exhaust"; "skip"; "trips"; "checksum" ]
           (List.map
              (fun (x : Framework.Supervisor.health) ->
                [ string_of_int x.Framework.Supervisor.attach_id;
                  x.Framework.Supervisor.name;
                  Framework.Supervisor.state_to_string x.Framework.Supervisor.state;
                  string_of_int x.Framework.Supervisor.invocations;
                  string_of_int x.Framework.Supervisor.finished;
                  string_of_int x.Framework.Supervisor.stopped;
                  string_of_int x.Framework.Supervisor.crashed;
                  string_of_int x.Framework.Supervisor.exhausted;
                  string_of_int x.Framework.Supervisor.skipped;
                  string_of_int x.Framework.Supervisor.trips;
                  Printf.sprintf "%016Lx" x.Framework.Supervisor.ret_checksum ])
              stats.Serve.per_ext));
      Printf.printf "kernel at end: %s\n"
        (if Kernel_sim.Kernel.is_dead world.Framework.World.kernel then "DEAD"
         else "alive")
    end;
    Printf.printf "\nevents served per epoch:\n";
    print_string
      (Framework.Report.table
         ~header:[ "epoch"; "events" ]
         (List.map
            (fun (e, n) -> [ string_of_int e; string_of_int n ])
            stats.Serve.totals.Serve.per_epoch));
    let store = world.Framework.World.epochs in
    Printf.printf "\nepoch transitions:\n";
    print_string
      (Framework.Report.table
         ~header:[ "epoch"; "at (vclock ns)"; "loads"; "unloads"; "tail-calls";
                   "vconfig"; "aconfig"; "grace" ]
         (List.map
            (fun (t : Framework.Epoch.transition) ->
              [ string_of_int t.Framework.Epoch.epoch;
                Int64.to_string t.Framework.Epoch.at_ns;
                string_of_int t.Framework.Epoch.loads;
                string_of_int t.Framework.Epoch.unloads;
                string_of_int t.Framework.Epoch.tail_call_updates;
                (if t.Framework.Epoch.vconfig_changed then "changed" else "-");
                (if t.Framework.Epoch.aconfig_changed then "changed" else "-");
                (match t.Framework.Epoch.grace_ns with
                | Some g -> Printf.sprintf "%Ldns" g
                | None -> "pending") ])
            (Framework.Epoch.transitions store)));
    let swap = Telemetry.Registry.histogram "epoch.swap_ns" in
    Printf.printf
      "epochs: %d published, %d retired, %d pending grace; swap latency \
       mean=%.0fns max=%Ldns (host clock)\n"
      (Framework.Epoch.published store)
      (Framework.Epoch.retired store)
      (Framework.Epoch.grace_pending store)
      (Telemetry.Histogram.mean swap)
      (Telemetry.Histogram.max_value swap);
    let vc = world.Framework.World.vcache in
    Printf.printf "verdict cache: %d hits (%d cross-epoch), %d misses\n"
      (Framework.Verdict_cache.hits vc)
      (Framework.Verdict_cache.cross_epoch_reuse vc)
      (Framework.Verdict_cache.misses vc);
    (match trace_out with None -> () | Some path -> write_chrome_trace path);
    save_snapshot ();
    Printf.printf "(telemetry snapshot saved; inspect with `untenable-cli stats`)\n"
  in
  let events =
    Arg.(value & opt int 10_000 & info [ "events" ] ~doc:"Number of synthetic packets.")
  in
  let reloads =
    Arg.(
      value & opt int 3
      & info [ "reloads" ]
          ~doc:"Scripted hot reloads, spread evenly across the stream.")
  in
  let filters =
    Arg.(value & opt int 3 & info [ "filters" ] ~doc:"Number of filters to attach.")
  in
  let size = Arg.(value & opt int 64 & info [ "size" ] ~doc:"Packet size in bytes.") in
  let seed =
    Arg.(value & opt int64 0x9e3779b97f4a7c15L & info [ "seed" ] ~doc:"Packet-stream seed.")
  in
  let domains =
    Arg.(
      value & opt int 1
      & info [ "domains" ] ~docv:"N"
          ~doc:
            "Serving domains: 1 serves in-line on the calling domain, >1 shards \
             the stream across $(docv) OCaml domains over shared epoch \
             snapshots.")
  in
  let jit = Arg.(value & flag & info [ "jit" ] ~doc:"Run filters through the JIT.") in
  let trace_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:"Write the causal trace as Chrome trace-event JSON to $(docv).")
  in
  let policy =
    Arg.(
      value
      & opt
          (enum
             [ ("fail-fast", Serve.Fail_fast); ("isolate", Serve.Isolate);
               ("supervise", supervise_policy) ])
          Serve.Isolate
      & info [ "policy" ] ~docv:"POLICY"
          ~doc:
            "Fault policy: fail-fast (the first crash stops the stream), \
             isolate (revive and keep serving) or supervise (isolate plus \
             circuit breakers and quarantine).")
  in
  let chaos_rate =
    Arg.(
      value & opt float 0.
      & info [ "chaos-rate" ] ~docv:"RATE"
          ~doc:"Chaos injection probability per event (0 disables).")
  in
  let crasher =
    Arg.(
      value & flag
      & info [ "crasher" ]
          ~doc:
            "Attach the probe-read crasher (its helper bug armed) in front of \
             the filters.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Serve a packet stream through an attached filter population, with \
          scripted mid-stream hot reloads (epoch swaps under live serving), \
          optional faults and supervision, and print the stream's totals and \
          epoch-transition table")
    Term.(
      const run $ events $ reloads $ filters $ size $ seed $ domains $ jit
      $ trace_out $ policy $ chaos_rate $ crasher)

(* ---- profile / flame ---- *)

(* Shared workload for the profiling views: the serve population (plus a
   helper-calling kprobe) under a seeded stream, with the Vclock sampler
   armed for the duration. *)
let run_profiled ~filters ~events ~size ~seed ~jit ~period_ns =
  let world = Framework.World.create_populated () in
  let opts = { Framework.Invoke.default_opts with Framework.Invoke.use_jit = jit } in
  let engine = Serve.create ~opts world in
  attach_filters ~with_helper:true engine ~filters;
  Telemetry.Profiler.reset ();
  Telemetry.Profiler.set_period period_ns;
  let stats =
    Fun.protect
      ~finally:(fun () -> Telemetry.Profiler.set_period 0L)
      (fun () ->
        Serve.run engine (Serve.plan ~seed ~size ~hook:"xdp" ~count:events ()))
  in
  (stats, world)

let period_arg =
  Arg.(
    value & opt int 64
    & info [ "period" ] ~docv:"NS"
        ~doc:"Sampling period in simulated nanoseconds (0 disables).")

let profile_cmd =
  let run filters events size seed jit period =
    let stats, _world =
      run_profiled ~filters ~events ~size ~seed ~jit ~period_ns:(Int64.of_int period)
    in
    Format.printf "%a@." Serve.pp_stats stats;
    let total = Telemetry.Profiler.total () in
    Printf.printf "\nsamples: %d (period %dns, vclock-driven)\n" total period;
    if total > 0 then
      print_string
        (Framework.Report.table
           ~header:[ "stack (prog;engine;block)"; "samples"; "share" ]
           (List.map
              (fun (stack, n) ->
                [ stack; string_of_int n;
                  Printf.sprintf "%.1f%%" (100. *. float_of_int n /. float_of_int total) ])
              (Telemetry.Profiler.sample_list ())));
    (* the per-helper latency scorecard, read back from the interned
       helper.ns.* histograms *)
    let s = Telemetry.Registry.snapshot () in
    let prefix = "helper.ns." in
    let plen = String.length prefix in
    let helpers =
      List.filter
        (fun (name, h) ->
          String.length name > plen
          && String.equal (String.sub name 0 plen) prefix
          && Telemetry.Histogram.count h > 0)
        s.Telemetry.Registry.histograms
    in
    if helpers <> [] then begin
      Printf.printf "\nhelper latency (simulated ns):\n";
      print_string
        (Framework.Report.table
           ~header:[ "helper"; "calls"; "mean"; "p50"; "p99"; "max" ]
           (List.map
              (fun (name, h) ->
                [ String.sub name plen (String.length name - plen);
                  string_of_int (Telemetry.Histogram.count h);
                  Printf.sprintf "%.0f" (Telemetry.Histogram.mean h);
                  Int64.to_string (Telemetry.Histogram.quantile h 0.50);
                  Int64.to_string (Telemetry.Histogram.quantile h 0.99);
                  Int64.to_string (Telemetry.Histogram.max_value h) ])
              helpers))
    end
  in
  let filters =
    Arg.(value & opt int 3 & info [ "filters" ] ~doc:"Number of filters to attach.")
  in
  let events =
    Arg.(value & opt int 2_000 & info [ "events" ] ~doc:"Number of synthetic packets.")
  in
  let size = Arg.(value & opt int 64 & info [ "size" ] ~doc:"Packet size in bytes.") in
  let seed =
    Arg.(value & opt int64 0x9e3779b97f4a7c15L & info [ "seed" ] ~doc:"Packet-stream seed.")
  in
  let jit = Arg.(value & flag & info [ "jit" ] ~doc:"Run filters through the JIT.") in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Drive a seeded stream with the sampling profiler armed and print \
          block-level sample attribution plus per-helper latency histograms")
    Term.(const run $ filters $ events $ size $ seed $ jit $ period_arg)

let flame_cmd =
  let run filters events size seed jit period samples =
    let _stats, _world =
      run_profiled ~filters ~events ~size ~seed ~jit ~period_ns:(Int64.of_int period)
    in
    (* both outputs are flamegraph-collapse lines, ready for
       flamegraph.pl / speedscope *)
    if samples then print_string (Telemetry.Profiler.to_folded ())
    else print_string (Telemetry.Export.to_folded (Telemetry.Registry.snapshot ()))
  in
  let filters =
    Arg.(value & opt int 3 & info [ "filters" ] ~doc:"Number of filters to attach.")
  in
  let events =
    Arg.(value & opt int 2_000 & info [ "events" ] ~doc:"Number of synthetic packets.")
  in
  let size = Arg.(value & opt int 64 & info [ "size" ] ~doc:"Packet size in bytes.") in
  let seed =
    Arg.(value & opt int64 0x9e3779b97f4a7c15L & info [ "seed" ] ~doc:"Packet-stream seed.")
  in
  let jit = Arg.(value & flag & info [ "jit" ] ~doc:"Run filters through the JIT.") in
  let samples =
    Arg.(
      value & flag
      & info [ "samples" ]
          ~doc:"Fold profiler samples instead of span self-time.")
  in
  Cmd.v
    (Cmd.info "flame"
       ~doc:
         "Run the profile workload and print folded stacks (span self-time, \
          or profiler samples with --samples) in flamegraph-collapse format")
    Term.(const run $ filters $ events $ size $ seed $ jit $ period_arg $ samples)

(* ---- top ---- *)

let top_cmd =
  let run events chaos_rate no_crasher jit =
    let world = Framework.World.create_populated () in
    let opts = { Framework.Invoke.default_opts with Framework.Invoke.use_jit = jit } in
    let engine = Serve.create ~policy:supervise_policy ~opts world in
    if not no_crasher then attach_crasher engine;
    let open Ebpf.Asm in
    List.iter
      (fun (name, items) ->
        attach_prog engine name ~prog_type:Ebpf.Program.Socket_filter items)
      [ ("len", [ ldxw r0 r1 0; exit_ ]);
        ("parity", [ ldxw r6 r1 0; mov_r r0 r6; and_i r0 1; exit_ ]);
        ("proto", [ ldxw r0 r1 4; exit_ ]);
        (* a second copy of len: same image, so its load is a verdict-cache
           hit and the hit-ratio line below has something to show *)
        ("len", [ ldxw r0 r1 0; exit_ ]) ];
    let chaos =
      if chaos_rate <= 0. then None
      else
        Some
          { Framework.Chaos.default_config with Framework.Chaos.fault_rate = chaos_rate }
    in
    let stats =
      Serve.run engine (Serve.plan ?chaos ~size:64 ~hook:"xdp" ~count:events ())
    in
    let pct r = Printf.sprintf "%.1f%%" (100. *. r) in
    print_string
      (Framework.Report.table
         ~header:[ "#"; "extension"; "state"; "inv"; "p50ns"; "p99ns"; "crash";
                   "exhaust"; "skip"; "trips" ]
         (List.map
            (fun (x : Framework.Supervisor.health) ->
              [ string_of_int x.Framework.Supervisor.attach_id;
                x.Framework.Supervisor.name;
                Framework.Supervisor.state_to_string x.Framework.Supervisor.state;
                string_of_int x.Framework.Supervisor.invocations;
                Int64.to_string x.Framework.Supervisor.p50_ns;
                Int64.to_string x.Framework.Supervisor.p99_ns;
                pct x.Framework.Supervisor.crash_rate;
                pct x.Framework.Supervisor.exhaust_rate;
                string_of_int x.Framework.Supervisor.skipped;
                string_of_int x.Framework.Supervisor.trips ])
            stats.Serve.per_ext));
    let vc = world.Framework.World.vcache in
    let hits = Framework.Verdict_cache.hits vc in
    let misses = Framework.Verdict_cache.misses vc in
    let lookups = hits + misses in
    Printf.printf
      "verdict cache: %d hits / %d misses (%d invalidated), hit ratio %.1f%%\n"
      hits misses
      (Framework.Verdict_cache.invalidations vc)
      (if lookups = 0 then 0.
       else 100. *. float_of_int hits /. float_of_int lookups);
    Printf.printf "events: %d dispatched, %d faults absorbed, kernel %s\n"
      stats.Serve.totals.Serve.events stats.Serve.totals.Serve.faults_absorbed
      (if Kernel_sim.Kernel.is_dead world.Framework.World.kernel then "DEAD"
       else "alive")
  in
  let events =
    Arg.(value & opt int 2_000 & info [ "events" ] ~doc:"Number of synthetic packets.")
  in
  let chaos_rate =
    Arg.(
      value & opt float 0.
      & info [ "chaos-rate" ] ~docv:"RATE"
          ~doc:"Chaos injection probability per event (0 disables).")
  in
  let no_crasher =
    Arg.(
      value & flag
      & info [ "no-crasher" ]
          ~doc:"Attach only healthy filters (skip the probe-read crasher).")
  in
  let jit = Arg.(value & flag & info [ "jit" ] ~doc:"Run filters through the JIT.") in
  Cmd.v
    (Cmd.info "top"
       ~doc:
         "Serve a stream and print the per-extension health scorecard: latency \
          quantiles, crash/exhaustion rates, breaker state and the \
          verdict-cache hit ratio")
    Term.(const run $ events $ chaos_rate $ no_crasher $ jit)

(* ---- trace-check ---- *)

let trace_check_cmd =
  let run path =
    let text =
      try
        let ic = open_in_bin path in
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      with Sys_error msg ->
        Printf.eprintf "trace-check: cannot read %s: %s\n" path msg;
        exit 1
    in
    match Telemetry.Trace_check.validate text with
    | Ok st ->
      Printf.printf "%s: %d events, %d spans, %d instants, %d lanes, max depth %d — OK\n"
        path st.Telemetry.Trace_check.events st.Telemetry.Trace_check.spans
        st.Telemetry.Trace_check.instants st.Telemetry.Trace_check.traces
        st.Telemetry.Trace_check.max_depth
    | Error msg ->
      Printf.eprintf "%s: INVALID: %s\n" path msg;
      exit 1
  in
  let path = Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE") in
  Cmd.v
    (Cmd.info "trace-check"
       ~doc:"Validate a Chrome trace-event JSON file (as written by dispatch --trace)")
    Term.(const run $ path)

(* ---- lint ---- *)

(* A small fixed corpus exercising each pass: a resource leak, its clean
   twin, a ringbuf leak, a lock-discipline violation, and a program whose
   guard the elide pass can prove redundant.  Lint runs the analysis only —
   no verifier — so the known-bad programs are linted even though the
   verify gate would reject them. *)
let lint_corpus () =
  let open Ebpf.Asm in
  let h = Helpers.Registry.id_of_name in
  [ ( "sock-leak",
      "acquires a socket and exits without releasing it",
      [ mov_i r1 8080; call (h "bpf_sk_lookup_tcp"); mov_i r0 0; exit_ ] );
    ( "sock-clean",
      "acquires a socket and releases it on every path",
      [ mov_i r1 8080; call (h "bpf_sk_lookup_tcp"); jeq_i r0 0 "out";
        mov_r r1 r0; call (h "bpf_sk_release"); label "out"; mov_i r0 0;
        exit_ ] );
    ( "ringbuf-leak",
      "reserves a ringbuf slot and never submits or discards it",
      [ map_fd r1 1; mov_i r2 8; mov_i r3 0; call (h "bpf_ringbuf_reserve");
        mov_i r0 0; exit_ ] );
    ( "lock-sleep",
      "calls a may-sleep helper while holding the spinlock",
      [ mov_r r1 r10; add_i r1 (-8); call (h "bpf_spin_lock");
        mov_r r1 r10; add_i r1 (-16); mov_i r2 8; mov_i r3 0;
        call (h "bpf_probe_read_user");
        mov_r r1 r10; add_i r1 (-8); call (h "bpf_spin_unlock");
        mov_i r0 0; exit_ ] );
    ( "redundant-guard",
      "branches on a bound the preceding constant already proves",
      [ mov_i r6 4; jgt_i r6 10 "oob"; mov_i r0 1; exit_; label "oob";
        mov_i r0 0; exit_ ] );
    (* the §2.2 probe-read vehicle: lints clean — the out-of-bounds copy
       lives inside the helper, exactly the class of bug no program-side
       static analysis (or verifier) can see *)
    ( "probe-read-crasher",
      "the exploit corpus crasher; helper-internal bugs are invisible here",
      [ call (h "bpf_get_current_task"); mov_r r3 r0; mov_r r1 r10;
        add_i r1 (-16); mov_i r2 16; call (h "bpf_probe_read_kernel");
        mov_i r0 0; exit_ ] ) ]

let lint_cmd =
  let run name no_resource no_lock no_elide no_bound =
    let config =
      { Analysis.Driver.default_config with
        Analysis.Driver.resource = not no_resource; lock = not no_lock;
        elide = not no_elide; bound = not no_bound }
    in
    let corpus =
      match name with
      | None -> lint_corpus ()
      | Some n -> (
        match List.filter (fun (id, _, _) -> String.equal id n) (lint_corpus ()) with
        | [] ->
          Printf.eprintf "unknown lint program %S; available: %s\n" n
            (String.concat ", " (List.map (fun (id, _, _) -> id) (lint_corpus ())));
          exit 1
        | l -> l)
    in
    let rows = ref [] in
    List.iter
      (fun (id, blurb, items) ->
        let prog =
          Ebpf.Program.of_items_exn ~name:id
            ~prog_type:Ebpf.Program.Socket_filter items
        in
        let report =
          Analysis.Driver.analyze ~config prog.Ebpf.Program.insns
        in
        Printf.printf "%-16s %s\n" id blurb;
        Format.printf "  %a@." Analysis.Driver.pp_report report;
        List.iter
          (fun (f : Analysis.Finding.t) ->
            rows :=
              [ id; f.Analysis.Finding.pass;
                string_of_int f.Analysis.Finding.pc;
                Analysis.Finding.severity_to_string f.Analysis.Finding.severity;
                f.Analysis.Finding.message ]
              :: !rows)
          report.Analysis.Driver.findings)
      corpus;
    (match List.rev !rows with
    | [] -> Printf.printf "\nno findings.\n"
    | rows ->
      print_newline ();
      print_string
        (Framework.Report.table
           ~header:[ "program"; "pass"; "pc"; "severity"; "finding" ] rows))
  in
  let prog_name = Arg.(value & pos 0 (some string) None & info [] ~docv:"NAME") in
  let no_resource =
    Arg.(value & flag & info [ "no-resource" ] ~doc:"Skip the resource-obligation pass.")
  in
  let no_lock =
    Arg.(value & flag & info [ "no-lock" ] ~doc:"Skip the lock-discipline pass.")
  in
  let no_elide =
    Arg.(value & flag & info [ "no-elide" ] ~doc:"Skip the redundant-guard elision pass.")
  in
  let no_bound =
    Arg.(value & flag & info [ "no-bound" ] ~doc:"Skip the cost/termination bound pass.")
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Run the static-analysis passes (resource obligations, lock \
          discipline, guard elision, cost bounds) over the built-in lint \
          corpus and print the findings")
    Term.(const run $ prog_name $ no_resource $ no_lock $ no_elide $ no_bound)

(* ---- bound ---- *)

(* A fixed corpus for the cost/termination pass: counted loops the
   SCEV-lite inference can bound, plus the shapes that must stay
   unbounded — a data-dependent exit test and the §2.2 vehicle's bpf_loop
   callback iteration.  The static columns come from the analysis alone;
   the observed column runs each program under a fuel guard and reports
   the max retired-instruction count across runs — the quantity a
   [Bounded n] verdict promises never exceeds [n]. *)
let bound_corpus () =
  let open Ebpf.Asm in
  let h = Helpers.Registry.id_of_name in
  [ ( "straight-line",
      "no loops; the bound is the instruction count",
      [ mov_i r0 0; add_i r0 7; xor_i r0 3; exit_ ] );
    ( "alu-loop",
      "counted 64-iteration ALU loop",
      [ mov_i r0 0; mov_i r6 64; label "loop"; add_i r0 7; xor_i r0 3;
        add_i r0 1; sub_i r6 1; jne_i r6 0 "loop"; exit_ ] );
    ( "nested-counted",
      "two nested counted loops (8 x 16)",
      [ mov_i r0 0; mov_i r6 8; label "outer"; mov_i r7 16; label "inner";
        add_i r0 1; sub_i r7 1; jne_i r7 0 "inner"; sub_i r6 1;
        jne_i r6 0 "outer"; exit_ ] );
    ( "data-loop",
      "exit test depends on helper output; trip count not inferable",
      [ label "loop"; call (h "bpf_get_prandom_u32"); jne_i r0 0 "loop";
        mov_i r0 0; exit_ ] );
    ( "bpf-loop-hang",
      "the \xc2\xa72.2 hang shape: callback iteration via bpf_loop",
      [ mov_i r1 1000; mov_label r2 "cb"; mov_i r3 0; mov_i r4 0;
        call (h "bpf_loop"); mov_i r0 0; exit_; label "cb"; mov_i r0 0;
        exit_ ] ) ]

let bound_cmd =
  let run jit =
    let world = Framework.World.create () in
    let ictx = Framework.Invoke.create world in
    let opts =
      { Framework.Invoke.default_opts with
        Framework.Invoke.fuel = Some 100_000L; use_jit = jit }
    in
    let rows =
      List.map
        (fun (id, blurb, items) ->
          let prog =
            Ebpf.Program.of_items_exn ~name:id
              ~prog_type:Ebpf.Program.Socket_filter items
          in
          let report = Analysis.Driver.analyze prog.Ebpf.Program.insns in
          Printf.printf "%-16s %s\n" id blurb;
          match report.Analysis.Driver.cost with
          | None -> [ id; "-"; "-"; "?"; "-" ]
          | Some cost ->
            (* the fabricated handle skips the verify gate: the hang shapes
               must be measurable even though verification would refuse
               them (§2.2: verified-or-not, only runtime guards stop them) *)
            let loaded =
              Framework.Pipeline.Ebpf_prog
                { prog_id = 1; prog;
                  vstats =
                    { Bpf_verifier.Verifier.insns_processed = 0;
                      states_explored = 0; prune_hits = 0;
                      callbacks_verified = 0; log = "" };
                  analysis = Some report }
            in
            let observed = ref 0L in
            for _ = 1 to 3 do
              let r = Framework.Invoke.run ~opts ~ictx world loaded in
              if Int64.compare r.Framework.Invoke.insns_retired !observed > 0
              then observed := r.Framework.Invoke.insns_retired
            done;
            let open Analysis.Bound_pass in
            [ id;
              string_of_int (List.length cost.loops);
              (match cost.loops with
              | [] -> "-"
              | ls ->
                String.concat ","
                  (List.map
                     (fun l ->
                       match l.trips with
                       | Some t -> string_of_int t
                       | None -> "?")
                     ls));
              Format.asprintf "%a" pp_bound cost.bound;
              Int64.to_string !observed ])
        (bound_corpus ())
    in
    print_newline ();
    print_string
      (Framework.Report.table
         ~header:[ "program"; "loops"; "trips"; "bound"; "max observed" ]
         rows);
    Printf.printf
      "\nobserved counts are under a 100k fuel guard; a bounded program's \
       max observed never exceeds its bound.\n";
    save_snapshot ()
  in
  let jit =
    Arg.(value & flag & info [ "jit" ] ~doc:"Measure under the JIT instead of the interpreter.")
  in
  Cmd.v
    (Cmd.info "bound"
       ~doc:
         "Run the static cost & termination analysis over the built-in \
          corpus: per-program loop trip counts, the worst-case instruction \
          bound, and the max observed retired-instruction count")
    Term.(const run $ jit)

(* ---- rustlite source ---- *)

let read_source path_or_inline =
  if Sys.file_exists path_or_inline then begin
    let ic = open_in_bin path_or_inline in
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    s
  end
  else path_or_inline (* treat the argument as inline source *)

let rl_check_cmd =
  let run src_arg =
    let src = read_source src_arg in
    match Rustlite.Parser.parse src with
    | Error e ->
      Printf.eprintf "parse error at %d:%d: %s\n" e.Rustlite.Parser.line
        e.Rustlite.Parser.col e.Rustlite.Parser.msg;
      exit 1
    | Ok body -> (
      match Rustlite.Toolchain.compile { Rustlite.Toolchain.name = "cli"; maps = []; body } with
      | Error e ->
        Format.printf "toolchain rejected: %a@." Rustlite.Toolchain.pp_error e;
        exit 1
      | Ok ext ->
        Printf.printf "ok: typechecked, ownership-checked, signed (digest %s...)\n"
          (String.sub ext.Rustlite.Toolchain.signature.Rustlite.Sign.digest_hex 0 16))
  in
  let src = Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE|SOURCE") in
  Cmd.v (Cmd.info "rl-check" ~doc:"Type/ownership-check and sign rustlite source")
    Term.(const run $ src)

let rl_run_cmd =
  let run src_arg wall_ms =
    let src = read_source src_arg in
    match Rustlite.Parser.parse src with
    | Error e ->
      Printf.eprintf "parse error at %d:%d: %s\n" e.Rustlite.Parser.line
        e.Rustlite.Parser.col e.Rustlite.Parser.msg;
      exit 1
    | Ok body -> (
      match Rustlite.Toolchain.compile { Rustlite.Toolchain.name = "cli"; maps = []; body } with
      | Error e ->
        Format.printf "toolchain rejected: %a@." Rustlite.Toolchain.pp_error e;
        exit 1
      | Ok ext -> (
        let world = Framework.World.create_populated () in
        match Framework.Pipeline.load_rustlite world ext with
        | Error e ->
          Format.printf "load failed: %a@." Framework.Pipeline.pp_error e;
          exit 1
        | Ok loaded ->
          let opts =
            { Framework.Invoke.default_opts with
              Framework.Invoke.wall_ns =
                Some (Int64.mul (Int64.of_int wall_ms) 1_000_000L)
            }
          in
          let report = Framework.Invoke.run ~opts world loaded in
          List.iter (Printf.printf "trace: %s\n") report.Framework.Invoke.trace;
          Format.printf "%a@.kernel: %a@." Framework.Invoke.pp_outcome
            report.Framework.Invoke.outcome Kernel_sim.Kernel.pp_health
            report.Framework.Invoke.health))
  in
  let src = Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE|SOURCE") in
  let wall =
    Arg.(value & opt int 100 & info [ "watchdog-ms" ] ~doc:"Watchdog budget in ms.")
  in
  Cmd.v
    (Cmd.info "rl-run"
       ~doc:"Run rustlite source through the signed-extension path (with watchdog)")
    Term.(const run $ src $ wall)

(* ---- fuzz ---- *)

let fuzz_cmd =
  let run seed budget matrix dist replay plant_jit corpus_dir =
    let plant = if plant_jit then [ Fuzz.Oracle.jit_branch_bug_key ] else [] in
    match replay with
    | Some path -> (
      match Fuzz.Driver.replay ~matrix ~plant path with
      | Error msg ->
        Printf.eprintf "fuzz: cannot replay %s: %s\n" path msg;
        exit 1
      | Ok None ->
        Printf.printf "replay %s: conforming (matrix %s, no divergence)\n" path
          matrix;
        save_snapshot ()
      | Ok (Some d) ->
        Format.printf "replay %s: DIVERGENCE %a@." path Fuzz.Oracle.pp_divergence
          d;
        save_snapshot ();
        exit 1)
    | None -> (
      let dist =
        match dist with
        | None -> None
        | Some s -> (
          match Fuzz.Gen.dist_of_string s with
          | Some d -> Some d
          | None ->
            Printf.eprintf
              "fuzz: unknown distribution %S (expected clean, adversarial or \
               hang)\n"
              s;
            exit 1)
      in
      match
        Fuzz.Driver.run ~seed ~budget ~matrix ?dist ~plant
          ~corpus_dir ()
      with
      | exception Invalid_argument msg ->
        Printf.eprintf "fuzz: %s\n" msg;
        exit 1
      | report ->
        Printf.printf "fuzz: seed=%Ld budget=%d matrix=%s\n" seed budget matrix;
        Printf.printf "programs: %d\n" report.Fuzz.Driver.programs;
        Printf.printf "divergences: %d\n"
          (List.length report.Fuzz.Driver.findings);
        Printf.printf "shrink steps: %d\n" report.Fuzz.Driver.shrink_steps;
        List.iter
          (fun f -> Format.printf "  %a@." Fuzz.Driver.pp_finding f)
          report.Fuzz.Driver.findings;
        save_snapshot ();
        if report.Fuzz.Driver.findings <> [] then exit 1)
  in
  let seed =
    Arg.(value & opt int64 1L & info [ "seed" ] ~doc:"PRNG seed for the program generator.")
  in
  let budget =
    Arg.(value & opt int 500 & info [ "budget" ] ~doc:"Number of programs to generate.")
  in
  let matrix =
    Arg.(
      value
      & opt string "quick"
      & info [ "matrix" ]
          ~doc:"Execution-mode matrix: quick, modes, serve, or full.")
  in
  let dist =
    Arg.(
      value
      & opt (some string) None
      & info [ "dist" ]
          ~doc:"Pin the program distribution: clean, adversarial, or hang.")
  in
  let replay =
    Arg.(
      value
      & opt (some string) None
      & info [ "replay" ] ~docv:"FILE"
          ~doc:"Replay one persisted corpus counterexample instead of generating.")
  in
  let plant_jit =
    Arg.(
      value & flag
      & info [ "plant-jit-bug" ]
          ~doc:
            "Force the historical JIT backward-branch bug on in every leg's \
             world; the oracle must catch it.")
  in
  let corpus_dir =
    Arg.(
      value & opt string "corpus"
      & info [ "corpus" ] ~docv:"DIR"
          ~doc:"Directory where shrunk counterexamples are persisted.")
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Differential fuzzing: generate seeded eBPF programs and cross-check \
          every execution mode (interpreter/JIT, elision, fuel batching, \
          sequential/sharded serving, chaos) against each other; shrink and \
          persist any divergence")
    Term.(
      const run $ seed $ budget $ matrix $ dist $ replay $ plant_jit
      $ corpus_dir)

let main =
  Cmd.group
    (Cmd.info "untenable-cli" ~version:Untenable.version
       ~doc:"Explore the 'Kernel extension verification is untenable' reproduction")
    [ helpers_cmd; audit_cmd; demos_cmd; demo_cmd; serve_cmd; profile_cmd; flame_cmd; top_cmd; trace_check_cmd; matrix_cmd;
      datasets_cmd; lint_cmd; bound_cmd; fuzz_cmd; rl_check_cmd; rl_run_cmd;
      stats_cmd; trace_cmd ]

let () = exit (Cmd.eval main)
