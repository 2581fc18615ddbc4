(* Running a loaded extension.

   Two modes share one code path:

   - one-shot: a fresh helper context and fresh ctx/skb regions per
     invocation.  Exploit demos depend on the exact allocation pattern (an
     OOB write lands in a *new* region), so this path must not change.

   - pooled (a [t]): a serving loop reuses one helper context, one ctx
     region per context size, and one growable skb buffer.  Kmem regions
     are never freed on this path and lookups scan the region list, so
     without reuse a 10k-event dispatch run allocates 20k regions and ends
     up quadratic; with reuse the address space stays constant-size.  It
     also keeps the JIT images it compiled, so a program is compiled once
     per context and epoch rather than on every invocation. *)

module Kernel = Kernel_sim.Kernel
module Kobject = Kernel_sim.Kobject
module Kmem = Kernel_sim.Kmem
module Oops = Kernel_sim.Oops
module Hctx = Helpers.Hctx
module Guard = Runtime.Guard
module Program = Ebpf.Program

type run_opts = {
  skb_payload : Bytes.t option;  (* packet to attach (socket_filter/xdp) *)
  fuel : int64 option;           (* instruction budget guard *)
  wall_ns : int64 option;        (* wall-clock guard (interpreter only) *)
  max_depth : int option;        (* call-depth cap (interpreter only) *)
  ns_per_insn : int64;           (* simulated cost per instruction *)
  use_jit : bool;
  jit_branch_bug : bool;         (* inject the JIT branch-offset bug *)
  use_elision : bool;            (* honour the elide pass's guard elisions *)
  use_bound_batching : bool;     (* honour the bound pass's fuel-check
                                    windows on proven-bounded programs *)
  bound_watchdog : bool;         (* derive a wall-clock deadline from the
                                    static bound when none was given *)
}

let default_opts =
  { skb_payload = None; fuel = None; wall_ns = None; max_depth = None;
    ns_per_insn = 1L; use_jit = false; jit_branch_bug = false;
    use_elision = true; use_bound_batching = true; bound_watchdog = false }

(* ---- reusable invocation context ---- *)

type t = {
  world : World.t;
  hctx : Hctx.t;
  (* one preallocated ctx struct per context size seen, zeroed on reuse *)
  mutable ctx_regions : (int * Kmem.region) list;
  (* one skb backing buffer, grown (reallocated) only when a larger packet
     arrives; the sk_buff record itself is rebuilt per event with the
     event's length *)
  mutable skb_region : Kmem.region option;
  (* JIT images compiled against [hctx], which [Hctx.reset] clears in
     place, so they stay valid across invocations.  Keyed by physical
     identity on (program, elision vector, branch-bug flag); filled under
     epoch [images_epoch] and emptied when a run pins another one. *)
  mutable images : (int array * Runtime.Jit.compiled) list;
  mutable images_epoch : int;
}

let create (w : World.t) =
  { world = w; hctx = World.new_hctx w; ctx_regions = []; skb_region = None;
    images = []; images_epoch = 0 }

(* The image of [prog] for this invocation: the pooled context's cached one
   when it has it, a fresh compile otherwise (and always on the one-shot
   path). *)
let jit_image ictx ~bug ~elide hctx prog =
  let compile () =
    Runtime.Jit.compile ~bug_branch_off_by_one:bug ~elide hctx prog
  in
  match ictx with
  | None -> compile ()
  | Some i -> (
    match
      List.find_opt
        (fun (e, (c : Runtime.Jit.compiled)) ->
          c.prog == prog && e == elide && c.bug_branch_off_by_one = bug)
        i.images
    with
    | Some (_, c) -> c
    | None ->
      let c = compile () in
      i.images <- (elide, c) :: i.images;
      c)

let ctx_region ictx size =
  match List.assoc_opt size ictx.ctx_regions with
  | Some r ->
    Bytes.fill r.Kmem.bytes 0 size '\000';
    r
  | None ->
    let r =
      Kmem.alloc ictx.world.World.kernel.Kernel.mem ~size ~kind:"ctx"
        ~name:"prog_ctx" ()
    in
    ictx.ctx_regions <- (size, r) :: ictx.ctx_regions;
    r

let reuse_skb ictx payload =
  let mem = ictx.world.World.kernel.Kernel.mem in
  let len = Bytes.length payload in
  let region =
    match ictx.skb_region with
    | Some r when r.Kmem.size >= max len 1 -> r
    | _ ->
      let r = Kmem.alloc mem ~size:(max len 1) ~kind:"ctx" ~name:"sk_buff" () in
      ictx.skb_region <- Some r;
      r
  in
  Kmem.store_bytes mem ~addr:region.Kmem.base ~src:payload ~context:"make_skb";
  { Kobject.skb_mem = region; len; mark = 0L }

(* ---- telemetry ---- *)

let tele_runs = Telemetry.Registry.counter "loader.runs"
let tele_run_ns = Telemetry.Registry.histogram "loader.run.ns"

(* Bound-vs-observed cross-check: every non-tail-calling invocation of a
   statically bounded program records its retired-instruction count, and
   any run that retires more than the static bound bumps the violation
   counter — which must stay 0 (the pass's soundness contract). *)
let tele_bound_observed =
  Telemetry.Registry.histogram "analysis.bound.observed_insns"
let tele_bound_violations =
  Telemetry.Registry.counter "analysis.bound.violations"

(* ---- running ---- *)

(* The closed outcome algebra of an invocation.  A guard trip carries *which
   budget* ran out as data, not as a string buried in the termination
   record: supervisors and dispatch policies branch on it. *)

type resource = Fuel | Wall_clock | Stack

let resource_to_string = function
  | Fuel -> "fuel"
  | Wall_clock -> "wall-clock"
  | Stack -> "stack"

type outcome =
  | Finished of int64                       (* clean return value *)
  | Stopped of Guard.termination            (* clean self-stop (language panic) *)
  | Crashed of Oops.report                  (* the kernel is dead *)
  | Exhausted of resource * Guard.termination
      (* a runtime budget ran out; destructors ran, kernel intact *)

(* Guard terminations carry a [reason]; lift it into the outcome algebra. *)
let outcome_of_termination (t : Guard.termination) =
  match t.Guard.reason with
  | Guard.Fuel_exhausted -> Exhausted (Fuel, t)
  | Guard.Watchdog_timeout -> Exhausted (Wall_clock, t)
  | Guard.Stack_violation -> Exhausted (Stack, t)
  | Guard.Language_panic _ -> Stopped t

let pp_outcome ppf = function
  | Finished v -> Format.fprintf ppf "finished ret=%Ld" v
  | Crashed r -> Format.fprintf ppf "CRASHED: %a" Oops.pp_report r
  | Stopped t -> Format.fprintf ppf "%a" Guard.pp_termination t
  | Exhausted (res, t) ->
    Format.fprintf ppf "%s exhausted: %a" (resource_to_string res)
      Guard.pp_termination t

type run_report = {
  outcome : outcome;
  health : Kernel.health;
  trace : string list;
  resources_outstanding : int;  (* leaked-by-exit acquired resources *)
  insns_retired : int64;
      (* instructions retired by completed activations (an activation cut
         short by a tail call is not counted; Rustlite reports 0) *)
}

(* Fill the context struct for an eBPF program type (the region is fresh or
   freshly zeroed, so only the populated fields matter). *)
let fill_ctx (w : World.t) (prog : Program.t) (skb : Kobject.sk_buff option) region =
  (match (prog.Program.prog_type, skb) with
  | (Program.Socket_filter | Program.Xdp), Some skb ->
    Kmem.store w.World.kernel.Kernel.mem ~size:4 ~addr:region.Kmem.base
      ~value:(Int64.of_int skb.Kobject.len) ~context:"ctx setup";
    Kmem.store w.World.kernel.Kernel.mem ~size:4
      ~addr:(Kmem.region_addr region 4) ~value:0x0800L ~context:"ctx setup"
  | _ -> ());
  region

let max_tail_calls = 33

let run ?(opts = default_opts) ?ictx ?snap (w : World.t)
    (loaded : Pipeline.loaded) : run_report =
  (match ictx with
  | Some i when i.world != w ->
    invalid_arg "Invoke.run: invocation context belongs to a different world"
  | _ -> ());
  (* Pin one epoch for the whole invocation, RCU-style: every tail-call and
     hctx prog-array lookup resolves against this snapshot, so a reload
     published mid-stream can never tear the event's world view.  The pin
     is released (and superseded epochs get to retire) on every exit
     path. *)
  let snap =
    match snap with
    | Some s -> Epoch.retain w.World.epochs s
    | None -> World.pin w
  in
  Fun.protect ~finally:(fun () -> Epoch.release w.World.epochs snap)
  @@ fun () ->
  let hctx =
    match ictx with
    | Some i ->
      Hctx.reset i.hctx;
      World.sync_hctx ~snap w i.hctx;
      if i.images_epoch <> snap.Epoch.epoch then begin
        i.images <- [];
        i.images_epoch <- snap.Epoch.epoch
      end;
      i.hctx
    | None -> World.new_hctx ~snap w
  in
  let skb =
    Option.map
      (fun payload ->
        match ictx with
        | Some i -> reuse_skb i payload
        | None -> Kobject.make_skb w.World.kernel.Kernel.mem ~payload)
      opts.skb_payload
  in
  hctx.Hctx.skb <- skb;
  Kernel.snapshot_refs w.World.kernel;
  Telemetry.Registry.bump tele_runs;
  let { fuel; wall_ns; max_depth; ns_per_insn; use_jit; jit_branch_bug;
        use_elision; use_bound_batching; bound_watchdog; _ } =
    opts
  in
  let retired = ref 0L in
  let tail_called = ref false in
  let outcome =
    Telemetry.Registry.with_span "loader.run" ~hist:tele_run_ns
      ~clock:(fun () -> Kernel_sim.Vclock.now w.World.kernel.Kernel.clock)
      (fun () ->
    match loaded with
    | Pipeline.Ebpf_prog { prog; analysis; _ } -> (
      (* the elide pass's per-pc resolved branch targets, honoured only for
         the program they were computed on (a tail-call target has its own
         handle and its own analysis) *)
      let elide0 =
        if not use_elision then [||]
        else
          match analysis with
          | Some a
            when Array.length a.Analysis.Driver.elide
                 = Array.length prog.Program.insns ->
            a.Analysis.Driver.elide
          | _ -> [||]
      in
      (* the bound pass's verdict and fuel-check window vector, honoured
         under the same provenance rule as elision: first program in the
         chain only (tail-call targets carry their own analysis) *)
      let static_bound =
        match analysis with
        | Some { Analysis.Driver.cost = Some c; _ } -> (
          match c.Analysis.Bound_pass.bound with
          | Analysis.Bound_pass.Bounded b
            when Array.length c.Analysis.Bound_pass.spans
                 = Array.length prog.Program.insns ->
            Some (b, c.Analysis.Bound_pass.spans)
          | _ -> None)
        | _ -> None
      in
      let spans0 =
        match static_bound with
        | Some (_, spans) when use_bound_batching -> spans
        | _ -> [||]
      in
      let wall_ns =
        match (wall_ns, static_bound) with
        | None, Some (b, _) when bound_watchdog ->
          (* advisory deadline hint: well past anything a bounded program
             can spend, so it only fires if the static bound lied *)
          Some
            (Int64.add
               (Int64.mul (Int64.mul (Int64.of_int b) ns_per_insn) 8L)
               4096L)
        | w, _ -> w
      in
      let desc = Program.ctx_of_prog_type prog.Program.prog_type in
      let region =
        match ictx with
        | Some i -> ctx_region i desc.Program.ctx_size
        | None ->
          Kmem.alloc w.World.kernel.Kernel.mem ~size:desc.Program.ctx_size
            ~kind:"ctx" ~name:"prog_ctx" ()
      in
      let ctx = fill_ctx w prog skb region in
      let convert = function
        | Runtime.Interp.Ret v -> Finished v
        | Runtime.Interp.Oopsed r -> Crashed r
        | Runtime.Interp.Terminated t -> outcome_of_termination t
      in
      (* fire armed timers once the invocation completes (the simulated
         softirq): advance the clock to each deadline and run the callback
         at its pc with (0, cb_ctx) — the shape the verifier checked *)
      let fire_timers prog =
        let timers = List.sort compare hctx.Hctx.timers in
        hctx.Hctx.timers <- [];
        List.iter
          (fun (deadline, cb_pc, cb_ctx) ->
            let now = Kernel_sim.Vclock.now w.World.kernel.Kernel.clock in
            if Int64.compare deadline now > 0 then
              Kernel_sim.Vclock.advance w.World.kernel.Kernel.clock
                (Int64.sub deadline now);
            let t = Runtime.Interp.create ~fuel:1_000_000L hctx in
            match
              Runtime.Interp.exec_insns t prog.Program.insns ~entry:cb_pc ~depth:1
                ~args:[| 0L; cb_ctx; 0L; 0L; 0L |]
            with
            | (_ : int64) -> ()
            | exception Runtime.Guard.Terminate reason ->
              ignore (Runtime.Guard.terminate hctx reason))
          timers
      in
      let rec go prog elide spans remaining_tail_calls =
        match
          if use_jit then begin
            let compiled = jit_image ictx ~bug:jit_branch_bug ~elide hctx prog in
            let r, n =
              Runtime.Jit.run_counted ?fuel ~ns_per_insn ~spans hctx compiled
                ~ctx_addr:ctx.Kmem.base
            in
            retired := Int64.add !retired n;
            r
          end
          else begin
            let r, n =
              Runtime.Interp.run_counted ?fuel ?wall_ns ?max_depth ~ns_per_insn
                ~elide ~spans ~hctx ~prog ~ctx_addr:ctx.Kmem.base ()
            in
            retired := Int64.add !retired n;
            r
          end
        with
        | r ->
          (* softirq: deliver any timers the program armed *)
          (match r with
          | Runtime.Interp.Ret _ when hctx.Hctx.timers <> [] -> (
            match Kernel.protect w.World.kernel (fun () -> fire_timers prog) with
            | Ok () -> ()
            | Error _ -> ())
          | _ -> ());
          convert r
        | exception Hctx.Tail_call prog_id -> (
          (* the old program's invocation ends here; leave its RCU section
             before entering the next program in the chain *)
          tail_called := true;
          Kernel_sim.Rcu.read_unlock w.World.kernel.Kernel.rcu ~context:"tail_call";
          if remaining_tail_calls = 0 then Finished 0L
          else
            (* resolve against the pinned snapshot, never the live world:
               an unload published since this invocation began must not be
               observable half-way through a chain *)
            match Epoch.find_prog snap prog_id with
            | None -> Finished (-22L)
            | Some next -> go next [||] [||] (remaining_tail_calls - 1))
      in
      let r = go prog elide0 spans0 max_tail_calls in
      (match static_bound with
      | Some (b, _) when not !tail_called ->
        Telemetry.Registry.observe tele_bound_observed !retired;
        if Int64.compare !retired (Int64.of_int b) > 0 then
          Telemetry.Registry.bump tele_bound_violations
      | _ -> ());
      r)
    | Pipeline.Rustlite_ext { ext; map_ids } -> (
      let kctx = { Rustlite.Kcrate.hctx; map_ids } in
      match
        Rustlite.Eval.run ?fuel ?wall_ns ~kctx
          ext.Rustlite.Toolchain.src.Rustlite.Toolchain.body
      with
      | Rustlite.Eval.Ret v ->
        Finished (match v with Rustlite.Value.V_int x -> x | _ -> 0L)
      | Rustlite.Eval.Oopsed r -> Crashed r
      | Rustlite.Eval.Terminated t -> outcome_of_termination t))
  in
  {
    outcome;
    health = Kernel.health w.World.kernel;
    trace = Hctx.trace_output hctx;
    resources_outstanding = Helpers.Resources.outstanding hctx.Hctx.resources;
    insns_retired = !retired;
  }
