(* The staged load pipeline: the two load paths of the study as one explicit
   sequence of stages, each with its own typed error.

     admission -> fixup -> gate [verify | validate-signature] -> link

   Path A (today's architecture, paper Figure 1): the gate is the in-kernel
   verifier's symbolic execution — with a content-addressed verdict cache in
   front of it, because a kernel serving heavy extension traffic sees the
   same program image over and over, and verification is a pure function of
   program content plus the inputs Verdict_cache fingerprints.

   Path B (the proposal, paper Figure 5): the gate is signature validation
   only; safety came from the userspace toolchain and will be backstopped by
   the runtime guards.

   Both paths produce the same [loaded] handle, run by Invoke, so any
   difference in observed safety is attributable to the architecture. *)

module Kernel = Kernel_sim.Kernel
module Oops = Kernel_sim.Oops
module Bpf_map = Maps.Bpf_map
module Program = Ebpf.Program
module Verifier = Bpf_verifier.Verifier

type loaded =
  | Ebpf_prog of { prog_id : int; prog : Program.t; vstats : Verifier.stats;
                   analysis : Analysis.Driver.report option }
  | Rustlite_ext of { ext : Rustlite.Toolchain.signed_extension;
                      map_ids : (string * int) list }

(* ---- stages and their typed errors ---- *)

type stage = Admission | Fixup | Analyze | Gate | Link

let stage_name = function
  | Admission -> "admission"
  | Fixup -> "fixup"
  | Analyze -> "analyze"
  | Gate -> "gate"
  | Link -> "link"

type error =
  | Too_many_insns of { count : int; max : int }  (* admission: size cap *)
  | Cost_budget_exceeded of { bound : int; max : int }
      (* admission: static worst-case bound over the aconfig budget *)
  | Unbounded_cost                                (* admission: no static bound, policy Deny *)
  | Unknown_helper of string                      (* fixup: unresolved relocation *)
  | Verifier_rejected of Verifier.reject          (* gate, path A *)
  | Verifier_crashed of string                    (* gate, path A: verifier bug fired *)
  | Bad_signature                                 (* gate, path B *)
  | Duplicate_map of string                       (* link, path B: ambiguous map name *)

let stage_of_error = function
  | Too_many_insns _ | Cost_budget_exceeded _ | Unbounded_cost -> Admission
  | Unknown_helper _ -> Fixup
  | Verifier_rejected _ | Verifier_crashed _ | Bad_signature -> Gate
  | Duplicate_map _ -> Link

let pp_error ppf = function
  | Too_many_insns { count; max } ->
    Format.fprintf ppf "[admission] too many instructions (%d > %d)" count max
  | Cost_budget_exceeded { bound; max } ->
    Format.fprintf ppf
      "[admission] worst-case cost %d exceeds the max_cost budget %d" bound max
  | Unbounded_cost ->
    Format.fprintf ppf
      "[admission] no static instruction bound and the unbounded policy is deny"
  | Unknown_helper name -> Format.fprintf ppf "[fixup] unknown helper %s" name
  | Verifier_rejected r -> Format.fprintf ppf "[gate] verifier rejected: %a" Verifier.pp_reject r
  | Verifier_crashed msg -> Format.fprintf ppf "[gate] KERNEL BUG in verifier: %s" msg
  | Bad_signature -> Format.fprintf ppf "[gate] signature validation failed"
  | Duplicate_map name -> Format.fprintf ppf "[link] duplicate map name %s" name

(* ---- telemetry ---- *)

(* loader.* names predate the pipeline split and are kept stable for
   existing consumers; pipeline.* covers what is new. *)
let tele_ebpf_loads = Telemetry.Registry.counter "loader.ebpf_loads"
let tele_rustlite_loads = Telemetry.Registry.counter "loader.rustlite_loads"
let tele_load_errors = Telemetry.Registry.counter "loader.load_errors"
let tele_load_ns = Telemetry.Registry.histogram "loader.load_ns"
let tele_validate_ns = Telemetry.Registry.histogram "loader.validate_ns"
let tele_cache_hits = Telemetry.Registry.counter "pipeline.cache_hits"
let tele_cache_misses = Telemetry.Registry.counter "pipeline.cache_misses"
let tele_gate_ns = Telemetry.Registry.histogram "pipeline.gate_ns"
let tele_analysis_hits = Telemetry.Registry.counter "pipeline.analysis_cache_hits"
let tele_analysis_misses = Telemetry.Registry.counter "pipeline.analysis_cache_misses"
let tele_analysis_ns = Telemetry.Registry.histogram "pipeline.analysis_ns"
let tele_budget_rejects = Telemetry.Registry.counter "pipeline.cost_budget_rejects"

(* Loading happens before the simulated clock moves; host CPU time is the
   meaningful measure (it is dominated by verification on path A and by
   signature validation on path B). *)
let host_ns () = Int64.of_float (Sys.time () *. 1e9)

(* Every load runs under a fresh causal trace, with one span per pipeline
   stage, so the exported trace tree shows exactly where a given load spent
   its time (and whether the gate was a cache hit).  Stage spans are timed
   on the host clock, like the load histograms — the simulated clock has
   not started moving yet. *)
let stage_span stage f =
  Telemetry.Registry.with_span ~clock:host_ns ("pipeline." ^ stage_name stage) f

(* ------------------------------------------------------------------ *)
(* path A stages                                                      *)
(* ------------------------------------------------------------------ *)

(* Admission: the cheap structural checks that gate entry to the pipeline,
   before any per-instruction work.  The size cap mirrors the verifier's own
   BPF_MAXINSNS check so rejected programs see the identical verdict they
   always did — they just see it without paying for fixup first.  Reads the
   builder's staged vconfig: a load riding an epoch that also changes the
   cap is admitted under the cap it will be published with. *)
let admit ~(vconfig : Verifier.config) (prog : Program.t) :
    (Program.t, error) result =
  let count = Array.length prog.Program.insns in
  let max = vconfig.Verifier.max_insns in
  if count > max then Error (Too_many_insns { count; max }) else Ok prog

(* Fixup: resolve helper-name relocations to helper ids — the "load-time
   fixup on the program to resolve helper function addresses and other
   relocations" of §3.1.  Returns the patched program. *)
let fixup (prog : Program.t) : (Program.t, error) result =
  match prog.Program.relocs with
  | [] -> Ok prog
  | relocs -> (
    let insns = Array.copy prog.Program.insns in
    let missing =
      List.find_map
        (fun (pc, name) ->
          match Helpers.Registry.find_by_name name with
          | Some def ->
            insns.(pc) <- Ebpf.Insn.Call def.Helpers.Registry.id;
            None
          | None -> Some name)
        relocs
    in
    match missing with
    | Some name -> Error (Unknown_helper name)
    | None -> Ok { prog with Program.insns; relocs = [] })

let world_map_def (w : World.t) fd =
  Option.map (fun m -> m.Bpf_map.def) (Bpf_map.Registry.find w.World.maps fd)

(* Analyze: the optional static-analysis stage between fixup and the verify
   gate.  Findings never block a load — they are advisory (the verifier is
   still the authority on safety) and the elision vector is a performance
   fact — so this stage has no error arm; it decorates the eventual handle.
   Reports are cached in the world's verdict cache under (program digest,
   analysis-config signature), the only inputs the passes read. *)
let analyze_ebpf ?(use_cache = true) ~aconfig (w : World.t) (prog : Program.t) :
    Analysis.Driver.report option =
  let config = aconfig in
  if config = Analysis.Driver.all_off then None
  else begin
    let started = host_ns () in
    let report =
      if not use_cache then Analysis.Driver.analyze ~config prog.Program.insns
      else begin
        let key =
          Verdict_cache.analysis_key ~digest:(Program.digest prog)
            ~signature:(Analysis.Driver.config_signature config)
        in
        match Verdict_cache.find_analysis w.World.vcache key with
        | Some r ->
          Telemetry.Registry.bump tele_analysis_hits;
          r
        | None ->
          Telemetry.Registry.bump tele_analysis_misses;
          let r = Analysis.Driver.analyze ~config prog.Program.insns in
          Verdict_cache.store_analysis w.World.vcache key r;
          r
      end
    in
    Telemetry.Registry.observe tele_analysis_ns (Int64.sub (host_ns ()) started);
    Some report
  end

(* One full verifier run, with the verifier's own crash class converted into
   a typed gate error (and an oops on the simulated kernel: the verifier
   dying *is* a kernel bug). *)
let verify_uncached ~config (w : World.t) (prog : Program.t) :
    (Verifier.stats, error) result =
  match Verifier.verify_with_registry ~config ~registry:w.World.maps prog with
  | Ok vstats -> Ok vstats
  | Error r -> Error (Verifier_rejected r)
  | exception Bpf_verifier.Vbug.Verifier_crash msg ->
    Kernel.record_oops w.World.kernel
      { Oops.kind = Oops.Use_after_free; addr = None;
        context = "bpf_check/" ^ msg;
        time_ns = Kernel_sim.Vclock.now w.World.kernel.Kernel.clock };
    Error (Verifier_crashed msg)

(* Gate, path A: the in-kernel verifier behind the content-addressed verdict
   cache.  The fingerprint is recomputed from live mutable state on every
   load, so config/bug-set mutation invalidates by construction; crashes are
   never cached (each crashing load must oops the kernel again). *)
let gate_verify ?(use_cache = true) ~vconfig ~aconfig (w : World.t)
    (prog : Program.t) : (Verifier.stats, error) result =
  let started = host_ns () in
  let result =
    if not use_cache then verify_uncached ~config:vconfig w prog
    else begin
      let epoch = Epoch.current_epoch w.World.epochs in
      let fingerprint =
        Verdict_cache.fingerprint
          ~analysis:(Analysis.Driver.config_signature aconfig)
          ~config:vconfig ~bugs:w.World.bugs
          ~map_def:(world_map_def w) prog
      in
      let key = Verdict_cache.key ~digest:(Program.digest prog) ~fingerprint in
      match Verdict_cache.find ~epoch w.World.vcache key with
      | Some (Ok vstats) ->
        Telemetry.Registry.bump tele_cache_hits;
        Telemetry.Registry.point ~clock:host_ns "pipeline.cache_hit";
        Ok vstats
      | Some (Error r) ->
        Telemetry.Registry.bump tele_cache_hits;
        Telemetry.Registry.point ~clock:host_ns "pipeline.cache_hit";
        Error (Verifier_rejected r)
      | None -> (
        Telemetry.Registry.bump tele_cache_misses;
        Telemetry.Registry.point ~clock:host_ns "pipeline.cache_miss";
        match verify_uncached ~config:vconfig w prog with
        | Ok vstats as ok ->
          Verdict_cache.store ~epoch w.World.vcache key (Ok vstats);
          ok
        | Error (Verifier_rejected r) as e ->
          Verdict_cache.store ~epoch w.World.vcache key (Error r);
          e
        | Error _ as e -> e)
    end
  in
  Telemetry.Registry.observe tele_gate_ns (Int64.sub (host_ns ()) started);
  result

(* Link, path A: allocate a prog id and stage the program into the epoch
   builder's table (where tail calls will resolve it once published). *)
let link_ebpf (b : Epoch.builder) (prog : Program.t) (vstats : Verifier.stats)
    (analysis : Analysis.Driver.report option) : loaded =
  let prog_id = Epoch.add_prog b prog in
  Ebpf_prog { prog_id; prog; vstats; analysis }

let ( let* ) = Result.bind

(* With [?into] the stages emit into the caller's epoch builder — the load
   rides a larger transaction and publishes when the caller publishes.
   Without it, a successful load opens a one-shot builder and publishes the
   new epoch itself; a failed load publishes nothing (no epoch churn). *)
let load_ebpf ?use_cache ?into (w : World.t) (prog : Program.t) :
    (loaded, error) result =
  Telemetry.Registry.bump tele_ebpf_loads;
  let started = host_ns () in
  let b, own_builder =
    match into with
    | Some b -> (b, false)
    | None -> (Epoch.begin_ w.World.epochs, true)
  in
  let vconfig = Epoch.vconfig b and aconfig = Epoch.aconfig b in
  let result =
    Telemetry.Registry.with_trace (Telemetry.Registry.fresh_trace ()) (fun () ->
        Telemetry.Registry.with_span ~clock:host_ns "pipeline.load" (fun () ->
            let* prog = stage_span Admission (fun () -> admit ~vconfig prog) in
            let* prog = stage_span Fixup (fun () -> fixup prog) in
            let analysis =
              stage_span Analyze (fun () -> analyze_ebpf ?use_cache ~aconfig w prog)
            in
            (* cost-budget admission rides the analyze result: a static
               bound over the epoch's max_cost budget (or an Unbounded
               verdict under the Deny policy) rejects before the gate *)
            let* () =
              match analysis with
              | Some { Analysis.Driver.cost = Some c; _ } -> (
                match
                  ( c.Analysis.Bound_pass.bound,
                    aconfig.Analysis.Driver.max_cost,
                    aconfig.Analysis.Driver.on_unbounded )
                with
                | Analysis.Bound_pass.Bounded bound, Some max, _
                  when bound > max ->
                  Telemetry.Registry.bump tele_budget_rejects;
                  Error (Cost_budget_exceeded { bound; max })
                | Analysis.Bound_pass.Unbounded, _, Analysis.Driver.Deny ->
                  Telemetry.Registry.bump tele_budget_rejects;
                  Error Unbounded_cost
                | _ -> Ok ())
              | _ -> Ok ()
            in
            let* vstats =
              stage_span Gate (fun () ->
                  gate_verify ?use_cache ~vconfig ~aconfig w prog)
            in
            Ok (stage_span Link (fun () -> link_ebpf b prog vstats analysis))))
  in
  (match result with
  | Ok _ when own_builder -> ignore (Epoch.publish b)
  | Ok _ | Error _ -> ());
  Telemetry.Registry.observe tele_load_ns (Int64.sub (host_ns ()) started);
  (match result with
  | Error _ -> Telemetry.Registry.bump tele_load_errors
  | Ok _ -> ());
  result

(* ------------------------------------------------------------------ *)
(* path B stages                                                      *)
(* ------------------------------------------------------------------ *)

(* Gate, path B: recompute the payload and check the toolchain MAC; no
   analysis of any kind happens kernel-side. *)
let gate_validate (ext : Rustlite.Toolchain.signed_extension) : (unit, error) result =
  let started = host_ns () in
  let valid = Rustlite.Toolchain.validate ext in
  Telemetry.Registry.observe tele_validate_ns (Int64.sub (host_ns ()) started);
  if valid then Ok () else Error Bad_signature

(* Link, path B: load-time fixup — register the declared maps, nothing else.
   Duplicate declared names would make the name->id table ambiguous, so they
   fail the link stage before anything registers. *)
let link_rustlite (w : World.t) (ext : Rustlite.Toolchain.signed_extension) :
    (loaded, error) result =
  let defs = ext.Rustlite.Toolchain.src.Rustlite.Toolchain.maps in
  let dup =
    List.find_opt
      (fun (d : Bpf_map.def) ->
        List.length
          (List.filter
             (fun (d' : Bpf_map.def) -> String.equal d.Bpf_map.name d'.Bpf_map.name)
             defs)
        > 1)
      defs
  in
  match dup with
  | Some d -> Error (Duplicate_map d.Bpf_map.name)
  | None ->
    let map_ids =
      List.map
        (fun def ->
          let m = World.register_map w def in
          (def.Bpf_map.name, m.Bpf_map.id))
        defs
    in
    Ok (Rustlite_ext { ext; map_ids })

let load_rustlite (w : World.t) (ext : Rustlite.Toolchain.signed_extension) :
    (loaded, error) result =
  Telemetry.Registry.bump tele_rustlite_loads;
  let result =
    Telemetry.Registry.with_trace (Telemetry.Registry.fresh_trace ()) (fun () ->
        Telemetry.Registry.with_span ~clock:host_ns "pipeline.load" (fun () ->
            let* () = stage_span Gate (fun () -> gate_validate ext) in
            stage_span Link (fun () -> link_rustlite w ext)))
  in
  (match result with
  | Error _ -> Telemetry.Registry.bump tele_load_errors
  | Ok _ -> ());
  result
