(* The traced run: per-layer numbers, measured by calling each layer's
   public functions from here, inside the benchmark's own spans.

   Its time is split into five parts:
   - serve: untraced chunks, with traced ones (an event span per
     generator interval) paced among them, which gives the tracing
     overhead and Serve's self-reported rate beside the wall rate;
   - telemetry: chunks alternate with the library's telemetry off and on;
   - replay: the sequential serving loop's per-attachment steps
     (Attach.digest, Supervisor lookup/decide, Invoke.run) re-enacted on
     the same packets, so an event's time splits into named layers plus
     what is left unattributed;
   - layers: the engines, helpers, kernel and epoch calls on the
     workload's own programs and world;
   - load: corpus passes whose cold loads run the pipeline stage by stage
     (and the whole load once more in a twin world, to get the link
     stage as the remainder). *)

open Untenable
module Serve = Framework.Serve
module World = Framework.World
module Attach = Framework.Attach
module Pipeline = Framework.Pipeline
module Invoke = Framework.Invoke
module Epoch = Framework.Epoch
module Supervisor = Framework.Supervisor
module Verdict_cache = Framework.Verdict_cache
module Kmem = Kernel_sim.Kmem
module Kernel = Kernel_sim.Kernel
module Registry = Telemetry.Registry

type result = {
  metrics : (string * float * string) list;
  counts : (string * int) list;
  attempted : int;
  failed : int;
}

let deadline_after s = Int64.add (Clock.now ()) (Int64.of_float (s *. 1e9))
let before d = Int64.compare (Clock.now ()) d < 0

(* Call [f] in batches, one span per batch, until [seconds] have passed;
   returns the mean ns per call.  A batch lasts about 100 us (one call if a
   call takes longer), which keeps clock reads a small share of each span
   and the span count bounded; a 0.2 ms calibration burst sizes it and
   warms the callee. *)
let bench tr ~seconds name f =
  let d = deadline_after seconds in
  let calib = deadline_after 2e-4 and calls = ref 0 in
  while before calib do
    f ();
    incr calls
  done;
  let batch = max 1 (!calls / 2) in
  let k = ref 0 and total = ref 0. in
  while before d || !k = 0 do
    let t0 = Clock.now () in
    Trace.with_span tr ~group:!k ~n:batch name (fun _ ->
        for _ = 1 to batch do
          f ()
        done);
    total := !total +. Clock.since t0;
    incr k
  done;
  !total /. float_of_int (!k * batch)

let rate_ratio a b = Stats.fast_rate a /. Stats.fast_rate b

(* ---- serve: traced vs untraced chunks, telemetry off vs on ---- *)

(* Event spans kept per run.  A traced chunk records every one of its
   events, so its rate carries the whole cost of tracing; to stay within
   the budget, traced chunks are paced evenly over the part (every chunk
   still runs untraced beside them). *)
let event_span_budget = 100_000

let serve_part tr c ~seconds =
  let traced = Serving.acc c.Serving.kind and plain = Serving.acc c.Serving.kind in
  let n = Serving.chunk_events c.Serving.kind in
  let t0 = Clock.now () and d = deadline_after seconds in
  let last = ref None in
  let recorded = ref 0 in
  while before d || traced.Serving.chunks = 0 do
    let due = Clock.since t0 /. (seconds *. 1e9) *. float_of_int (event_span_budget - n) in
    if float_of_int !recorded <= due then begin
      let base = !recorded in
      let on_event i start stop =
        Trace.record tr ~group:(base + i) "serve.event" ~start ~stop
      in
      ignore (Serving.chunk ~on_event c traced);
      recorded := !recorded + n
    end;
    last := Some (Serving.chunk c plain)
  done;
  (traced, plain, Option.get !last)

let telemetry_part c ~seconds =
  let off = Serving.acc c.Serving.kind and on = Serving.acc c.Serving.kind in
  let d = deadline_after seconds in
  Fun.protect ~finally:(fun () -> Registry.set_enabled true) (fun () ->
      while before d || on.Serving.chunks = 0 do
        Registry.set_enabled false;
        ignore (Serving.chunk c off);
        Registry.set_enabled true;
        ignore (Serving.chunk c on)
      done);
  (off, on)

(* ---- replay: one event's serving steps, layer by layer ---- *)

let replay_events = 2_000

let replay_part tr c ~seconds =
  let s, _ = Serving.timed_build c in
  let e = s.Serving.engine in
  let supervised = match e.Serve.policy with Serve.Supervise _ -> true | _ -> false in
  let now () = Kernel_sim.Vclock.now e.Serve.world.World.kernel.Kernel.clock in
  let d = deadline_after seconds in
  let i = ref 0 in
  while before d && !i < replay_events do
    let pkt = c.Serving.pool.(!i mod Serving.pool_size) in
    let opts = { e.Serve.opts with Invoke.skb_payload = Some pkt } in
    Trace.with_span tr ~group:!i "replay.event" (fun parent ->
        List.iter
          (fun (a : Attach.attachment) ->
            let digest =
              Trace.with_span tr ~parent ~group:!i "attach.digest" (fun _ ->
                  Attach.digest a)
            in
            Trace.with_span tr ~parent ~group:!i "supervisor.decide" (fun _ ->
                let ext =
                  Supervisor.ext e.Serve.sup ~digest ~attach_id:a.Attach.attach_id
                    ~name:(Attach.name a)
                in
                if supervised then ignore (Supervisor.decide e.Serve.sup ext ~now_ns:(now ())));
            Trace.with_span tr ~parent ~group:!i "invoke.run" (fun _ ->
                ignore (Invoke.run ~opts ~ictx:e.Serve.ictx e.Serve.world a.Attach.loaded)))
          (Attach.attached e.Serve.attach ~hook:Serving.hook));
    incr i
  done

(* ---- layers: engines, helpers, kernel, epochs on the workload's world ---- *)

let layers_part tr c (corpus : Loading.corpus) ~seconds =
  let s, _ = Serving.timed_build c in
  let e = s.Serving.engine in
  let w = e.Serve.world in
  let mem = w.World.kernel.Kernel.mem in
  let pkt = c.Serving.pool.(0) in
  let attached = Attach.attached e.Serve.attach ~hook:Serving.hook in
  let progs =
    List.filter_map
      (fun (a : Attach.attachment) ->
        match a.Attach.loaded with
        | Pipeline.Ebpf_prog { prog; _ } -> Some (a.Attach.loaded, prog)
        | Pipeline.Rustlite_ext _ -> None)
      attached
  in
  let hctx = World.new_hctx w in
  hctx.Helpers.Hctx.skb <- Some (Kernel_sim.Kobject.make_skb mem ~payload:pkt);
  let ctx_of prog =
    let desc = Ebpf.Program.ctx_of_prog_type prog.Ebpf.Program.prog_type in
    let r = Kmem.alloc mem ~size:desc.Ebpf.Program.ctx_size ~kind:"ctx" ~name:"bench_ctx" () in
    Kmem.store mem ~size:4 ~addr:r.Kmem.base ~value:(Int64.of_int (Bytes.length pkt))
      ~context:"bench ctx";
    Kmem.store mem ~size:4 ~addr:(Kmem.region_addr r 4) ~value:0x0800L ~context:"bench ctx";
    r.Kmem.base
  in
  let fuel = e.Serve.opts.Invoke.fuel in
  let slices = 14 in
  let slice = seconds /. float_of_int slices in
  let per_prog = slice /. float_of_int (max 1 (List.length progs)) in
  let interp_opts =
    { e.Serve.opts with Invoke.use_jit = false; skb_payload = Some pkt }
  in
  let interp_insns = ref 0L and jit_insns = ref 0L in
  (* Invoke's own share: per program, Invoke.run on the interpreter minus
     the bare interpreter run, averaged over the programs *)
  let setup_ns =
    List.map
      (fun (loaded, prog) ->
        let ctx_addr = ctx_of prog in
        let invoke =
          bench tr ~seconds:per_prog "invoke.run_interp" (fun () ->
              ignore (Invoke.run ~opts:interp_opts ~ictx:e.Serve.ictx w loaded))
        in
        let interp =
          bench tr ~seconds:per_prog "interp.run" (fun () ->
              let _, n = Runtime.Interp.run_counted ?fuel ~hctx ~prog ~ctx_addr () in
              interp_insns := Int64.add !interp_insns n)
        in
        ignore
          (bench tr ~seconds:per_prog "jit.compile" (fun () ->
               ignore (Runtime.Jit.compile hctx prog)));
        let compiled = Runtime.Jit.compile hctx prog in
        ignore
          (bench tr ~seconds:per_prog "jit.run" (fun () ->
               let _, n = Runtime.Jit.run_counted ?fuel hctx compiled ~ctx_addr in
               jit_insns := Int64.add !jit_insns n));
        invoke -. interp)
      progs
  in
  (* path B's runtime: the population's signed extension if it has one,
     the corpus's first one otherwise *)
  let rl =
    match
      List.find_opt
        (fun (a : Attach.attachment) ->
          match a.Attach.loaded with Pipeline.Rustlite_ext _ -> true | _ -> false)
        attached
    with
    | Some a -> a.Attach.loaded
    | None -> Result.get_ok (Pipeline.load_rustlite w corpus.Loading.signed.(0))
  in
  (match rl with
  | Pipeline.Rustlite_ext { ext; map_ids } ->
    let kctx = { Rustlite.Kcrate.hctx; map_ids } in
    ignore
      (bench tr ~seconds:slice "rustlite.eval" (fun () ->
           ignore
             (Rustlite.Eval.run ~fuel:100_000L ~kctx
                ext.Rustlite.Toolchain.src.Rustlite.Toolchain.body)))
  | Pipeline.Ebpf_prog _ -> ());
  ignore
    (bench tr ~seconds:slice "kernel.snapshot_refs" (fun () ->
         Kernel.snapshot_refs w.World.kernel));
  (* helpers through the registry's one entry point *)
  let helper name = Option.get (Helpers.Registry.find_by_name name) in
  let ctr = World.register_map w Population.counter_map in
  let scratch = Kmem.alloc mem ~size:16 ~kind:"stack" ~name:"bench_scratch" () in
  let key = scratch.Kmem.base and value = Kmem.region_addr scratch 8 in
  let map_id = Int64.of_int ctr.Maps.Bpf_map.id in
  let call name args =
    let def = helper name in
    ignore
      (bench tr ~seconds:slice ("helper." ^ name) (fun () ->
           ignore (Helpers.Registry.invoke def hctx args)))
  in
  call "bpf_skb_load_bytes" [| 16L; value; 2L; 0L; 0L |];
  call "bpf_map_lookup_elem" [| map_id; key; 0L; 0L; 0L |];
  call "bpf_map_update_elem" [| map_id; key; value; 0L; 0L |];
  (* an epoch swap: stage a tail-call rewire and publish it *)
  let some_id =
    match progs with
    | (Pipeline.Ebpf_prog { prog_id; _ }, _) :: _ -> prog_id
    | _ -> 1
  in
  ignore
    (bench tr ~seconds:slice "epoch.swap" (fun () ->
         ignore (World.reconfigure w (fun b -> Epoch.set_tail_call b ~index:7 ~prog_id:some_id))));
  (* path B's load gate *)
  let signed = corpus.Loading.signed in
  let k = ref 0 in
  let next () = incr k; signed.(!k mod Array.length signed) in
  ignore
    (bench tr ~seconds:slice "pipeline.gate_validate" (fun () ->
         ignore (Pipeline.gate_validate (next ()))));
  ignore
    (bench tr ~seconds:slice "toolchain.validate" (fun () ->
         ignore (Rustlite.Toolchain.validate (next ()))));
  (* the cache key's two halves on the corpus programs *)
  let progs_c = corpus.Loading.progs in
  let j = ref 0 in
  let next_prog () = incr j; fst progs_c.(!j mod Array.length progs_c) in
  let map_def id = Option.map (fun m -> m.Maps.Bpf_map.def) (Maps.Bpf_map.Registry.find w.World.maps id) in
  let analysis = Analysis.Driver.config_signature (World.aconfig w) in
  ignore
    (bench tr ~seconds:slice "cache.fingerprint" (fun () ->
         ignore
           (Verdict_cache.fingerprint ~analysis ~config:(World.vconfig w)
              ~bugs:w.World.bugs ~map_def (next_prog ()))));
  ignore
    (bench tr ~seconds:slice "sha256.program_digest" (fun () ->
         ignore (Ebpf.Program.digest (next_prog ()))));
  ignore
    (bench tr ~seconds:slice "analysis.analyze" (fun () ->
         ignore
           (Analysis.Driver.analyze ~config:(World.aconfig w)
              (next_prog ()).Ebpf.Program.insns)));
  (Stats.mean setup_ns, Int64.to_float !interp_insns, Int64.to_float !jit_insns)

(* ---- load: cold loads stage by stage ---- *)

type load_totals = {
  mutable insns : float;
  mutable states : float;
  mutable accepted : int;
  mutable gate_accepted_ns : float;
  mutable hits : int;
  mutable lookups : int;
  mutable link : float list;  (* per cold load: whole load minus its stages, ns *)
}

let load_part tr (corpus : Loading.corpus) la ~seconds =
  let lt = { insns = 0.; states = 0.; accepted = 0; gate_accepted_ns = 0.; hits = 0; lookups = 0;
             link = [] } in
  let twin = ref None in
  let id = ref 0 in
  let on_load ~cold world prog =
    incr id;
    let group = !id in
    let span name f = Trace.with_span tr ~group name (fun _ -> f ()) in
    if cold then begin
      let b =
        match !twin with
        | Some (w, b) when w == world -> b
        | _ ->
          let b = Loading.fresh_world corpus in
          twin := Some (world, b);
          b
      in
      let vconfig = World.vconfig world and aconfig = World.aconfig world in
      let ( let* ) = Result.bind in
      let t_stages = Clock.now () in
      ignore
        (span "pipeline.stages" (fun () ->
             let* p = span "pipeline.admit" (fun () -> Pipeline.admit ~vconfig prog) in
             let* p = span "pipeline.fixup" (fun () -> Pipeline.fixup p) in
             ignore (span "pipeline.analyze" (fun () -> Pipeline.analyze_ebpf ~aconfig world p));
             let t0 = Clock.now () in
             let r = span "pipeline.gate_verify_cold" (fun () ->
                         Pipeline.gate_verify ~vconfig ~aconfig world p) in
             (match r with
             | Ok v ->
               lt.insns <- lt.insns +. float_of_int v.Bpf_verifier.Verifier.insns_processed;
               lt.states <- lt.states +. float_of_int v.Bpf_verifier.Verifier.states_explored;
               lt.accepted <- lt.accepted + 1;
               lt.gate_accepted_ns <- lt.gate_accepted_ns +. Clock.since t0
             | Error _ -> ());
             r));
      let stages_ns = Clock.since t_stages in
      let t0 = Clock.now () in
      let r = span "pipeline.load_cold" (fun () -> Pipeline.load_ebpf b prog) in
      lt.link <- (Clock.since t0 -. stages_ns) :: lt.link;
      r
    end
    else begin
      ignore
        (span "pipeline.gate_verify_warm" (fun () ->
             Pipeline.gate_verify ~vconfig:(World.vconfig world)
               ~aconfig:(World.aconfig world) world prog));
      span "pipeline.load_warm" (fun () -> Pipeline.load_ebpf world prog)
    end
  in
  let d = deadline_after seconds in
  while before d || la.Loading.passes = 0 do
    let w = Loading.pass ~on_load corpus la in
    lt.hits <- lt.hits + Verdict_cache.hits w.World.vcache;
    lt.lookups <- lt.lookups + Verdict_cache.hits w.World.vcache + Verdict_cache.misses w.World.vcache
  done;
  lt

(* ---- the run ---- *)

let traced ~(kind : Serving.kind) ~primary_serve ~seed ~seconds ~delay_ns ~out =
  let c = Serving.prepare kind ~seed ~delay_ns in
  let corpus = Loading.corpus ~seed in
  let tr = Trace.create () in
  let la = Loading.acc corpus in
  let part share = seconds *. share in
  let (traced, plain, last_engine), (off, on) =
    if primary_serve then
      (serve_part tr c ~seconds:(part 0.25), telemetry_part c ~seconds:(part 0.15))
    else (serve_part tr c ~seconds:(part 0.1), telemetry_part c ~seconds:(part 0.1))
  in
  replay_part tr c ~seconds:(part 0.05);
  let setup_ns, interp_insns, jit_insns = layers_part tr c corpus ~seconds:(part 0.2) in
  let lt = load_part tr corpus la ~seconds:(part (if primary_serve then 0.35 else 0.55)) in
  let tbl = Trace.summarize tr in
  let us = Trace.self_us tbl in
  let last = Option.get plain.Serving.last in
  let inv_per_event =
    float_of_int plain.Serving.attempted_inv /. float_of_int plain.Serving.events
  in
  let event_us = us "serve.event" in
  let invoke_us = us "invoke.run" in
  let digest_us = us "attach.digest" and decide_us = us "supervisor.decide" in
  (* the sharded worker computes digests once per segment, not per event *)
  let per_event_digest = match kind with Serving.Churn -> 0. | _ -> digest_us in
  let shards = last.Serve.per_shard in
  let sum f = List.fold_left (fun acc s -> acc + f s) 0 shards in
  let epochs = last_engine.Serving.engine.Serve.world.World.epochs in
  let p99 = Stats.fast_time traced.Serving.p99s in
  let ratio a b = if b = 0. then 0. else a /. b in
  let total name =
    match Hashtbl.find_opt tbl name with Some s -> s.Trace.total_ns | None -> 0.
  in
  let metrics =
    [ ("serve.event_us", event_us, "us");
      ("serve.event_p99_us", p99 /. 1e3, "us");
      ("serve.invocations_per_event", inv_per_event, "count");
      ("serve.overhead_us_per_invocation", (event_us -. (inv_per_event *. invoke_us)) /. inv_per_event, "us");
      ("attach.digest_us", digest_us, "us");
      ("supervisor.decide_us", decide_us, "us");
      ("serve.unattributed_us",
       event_us -. (inv_per_event *. (invoke_us +. per_event_digest +. decide_us)), "us");
      ("serve.wall_events_per_s", Stats.fast_rate plain.Serving.rates, "1/s");
      ("serve.self_reported_events_per_s", Stats.fast_rate plain.Serving.self_rates, "1/s");
      ("trace.overhead_share", rate_ratio plain.Serving.rates traced.Serving.rates -. 1., "share");
      ("telemetry.overhead_share", rate_ratio off.Serving.rates on.Serving.rates -. 1., "share");
      ("invoke.run_us", invoke_us, "us");
      ("invoke.setup_us", setup_ns /. 1e3, "us");
      ("kernel.snapshot_refs_us", us "kernel.snapshot_refs", "us");
      ("interp.run_us", us "interp.run", "us");
      ("interp.ns_per_insn", ratio (total "interp.run") interp_insns, "ns");
      ("jit.compile_us", us "jit.compile", "us");
      ("jit.run_us", us "jit.run", "us");
      ("jit.ns_per_insn", ratio (total "jit.run") jit_insns, "ns");
      ("rustlite.eval_us", us "rustlite.eval", "us");
      ("helper.skb_load_bytes_us", us "helper.bpf_skb_load_bytes", "us");
      ("helper.map_lookup_elem_us", us "helper.bpf_map_lookup_elem", "us");
      ("helper.map_update_elem_us", us "helper.bpf_map_update_elem", "us");
      ("shard.queue_peak", float_of_int (List.fold_left (fun m s -> max m s.Serve.s_queue_peak) 0 shards), "count");
      ("shard.backpressure_waits", float_of_int (sum (fun s -> s.Serve.s_backpressure_waits)), "count");
      ("shard.dropped", float_of_int (sum (fun s -> s.Serve.s_dropped)), "count");
      ("chaos.injected", float_of_int last.Serve.totals.Serve.injected, "count");
      ("epoch.swap_us", us "epoch.swap", "us");
      ("epoch.published", float_of_int (Epoch.published epochs), "count");
      ("epoch.retired", float_of_int (Epoch.retired epochs), "count");
      ("epoch.grace_pending", float_of_int (Epoch.grace_pending epochs), "count");
      ("pipeline.admit_us", us "pipeline.admit", "us");
      ("pipeline.fixup_us", us "pipeline.fixup", "us");
      ("pipeline.analyze_us", us "pipeline.analyze", "us");
      ("pipeline.gate_verify_cold_us", us "pipeline.gate_verify_cold", "us");
      ("pipeline.link_us", Stats.median lt.link /. 1e3, "us");
      ("verifier.insns_processed", lt.insns /. float_of_int (max 1 lt.accepted), "count");
      ("verifier.states_explored", lt.states /. float_of_int (max 1 lt.accepted), "count");
      ("verifier.ns_per_insn_processed", ratio lt.gate_accepted_ns lt.insns, "ns");
      ("analysis.analyze_us", us "analysis.analyze", "us");
      ("pipeline.gate_verify_warm_us", us "pipeline.gate_verify_warm", "us");
      ("cache.hit_ratio", float_of_int lt.hits /. float_of_int (max 1 lt.lookups), "share");
      ("cache.fingerprint_us", us "cache.fingerprint", "us");
      ("sha256.program_digest_us", us "sha256.program_digest", "us");
      ("pipeline.gate_validate_us", us "pipeline.gate_validate", "us");
      ("toolchain.validate_us", us "toolchain.validate", "us") ]
  in
  Trace.write tr out;
  let serve_events = traced.Serving.events + plain.Serving.events + off.Serving.events + on.Serving.events in
  let mismatches =
    (traced.Serving.mismatches + plain.Serving.mismatches + off.Serving.mismatches
     + on.Serving.mismatches + c.Serving.pin_misses)
    * Serving.chunk_events kind
    + la.Loading.mismatches
  in
  { metrics;
    counts =
      [ ("events", serve_events); ("loads", la.Loading.loads);
        ("load_passes", la.Loading.passes); ("spans", tr.Trace.len) ];
    attempted = serve_events + la.Loading.loads;
    failed = mismatches }
