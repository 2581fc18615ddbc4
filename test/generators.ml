(* Shared test scaffolding: the program builders, engine factories and
   qcheck generators that used to be copy-pasted across test_analysis,
   test_serve and test_supervisor, plus qcheck generators backed by the
   lib/fuzz program generator (one grammar, every suite). *)

open Untenable
open Ebpf.Asm
module World = Framework.World
module Pipeline = Framework.Pipeline
module Invoke = Framework.Invoke
module Attach = Framework.Attach
module Serve = Framework.Serve
module Bugdb = Helpers.Bugdb

let h = Helpers.Registry.id_of_name

(* ---- program builders ---- *)

let prog ?(name = "t") ?(prog_type = Ebpf.Program.Socket_filter) items =
  Ebpf.Program.of_items_exn ~name ~prog_type items

let insns_of items = (prog items).Ebpf.Program.insns

(* Load through the full pipeline, failing the test on rejection. *)
let load world name ~prog_type items =
  match Pipeline.load_ebpf world (prog ~name ~prog_type items) with
  | Ok loaded -> loaded
  | Error e -> Alcotest.failf "load %s: %a" name Pipeline.pp_error e

(* Hand a program straight to the runtime the way a path-B kernel would:
   the fabricated handle skips the verify gate, so properties are about
   the analysis/runtime against execution, not about what the verifier
   accepts. *)
let fabricate ?(prog_id = 1) p =
  Framework.Pipeline.Ebpf_prog
    { prog_id; prog = p;
      vstats =
        { Bpf_verifier.Verifier.insns_processed = 0; states_explored = 0;
          prune_hits = 0; callbacks_verified = 0; log = "" };
      analysis = Some (Analysis.Driver.analyze p.Ebpf.Program.insns) }

let outcome_agrees a b =
  match (a, b) with
  | Invoke.Finished x, Invoke.Finished y -> x = y
  | Invoke.Crashed _, Invoke.Crashed _ -> true
  | Invoke.Stopped _, Invoke.Stopped _ -> true
  | Invoke.Exhausted (x, _), Invoke.Exhausted (y, _) -> x = y
  | _ -> false

(* ---- canonical extension populations ---- *)

let healthy_filters =
  [ ("len", [ ldxw r0 r1 0; exit_ ]);
    ("parity", [ ldxw r6 r1 0; mov_r r0 r6; and_i r0 1; exit_ ]) ]

(* The three-filter stateless population the serve determinism oracle is
   stated over: len/parity plus a helper-calling port extractor. *)
let serve_filters =
  healthy_filters
  @ [ ("port",
       [ stdw r10 (-8) 0; mov_i r1 16; mov_r r2 r10; add_i r2 (-8);
         mov_i r3 2; call (h "bpf_skb_load_bytes"); ldxb r6 r10 (-8);
         lsh_i r6 8; ldxb r7 r10 (-7); or_r r6 r7; mov_r r0 r6; exit_ ]) ]

(* Verifier-accepted, crashes every invocation once the probe-read bug is
   armed in the world's Bugdb (the §2.2 vehicle). *)
let crasher_items =
  [ call (h "bpf_get_current_task");
    mov_r r3 r0;
    mov_r r1 r10;
    add_i r1 (-16);
    mov_i r2 16;
    call (h "bpf_probe_read_kernel");
    mov_i r0 0;
    exit_ ]

(* ---- engine factories ---- *)

(* A stateless serving population — per-event outcomes depend only on the
   payload, the scope the determinism contract is stated for. *)
let build_serve_engine ?opts () =
  let world = World.create_populated () in
  let engine = Serve.create ?opts world in
  List.iter
    (fun (name, items) ->
      match Pipeline.load_ebpf world (prog ~name items) with
      | Ok loaded -> ignore (Attach.attach engine.Serve.attach ~hook:"xdp" loaded)
      | Error e -> failwith (Format.asprintf "%a" Pipeline.pp_error e))
    serve_filters;
  engine

(* A hot reload: stage a fresh filter on the epoch builder and attach it —
   segment capture, snapshot retention and the swap publish all engage. *)
let hot_reload k (e : Serve.engine) b =
  let name = Printf.sprintf "hot%d" k in
  let p = prog ~name [ mov_i r0 (300 + k); exit_ ] in
  match Pipeline.load_ebpf ~into:b e.Serve.world p with
  | Ok loaded -> ignore (Attach.attach e.Serve.attach ~hook:"xdp" loaded)
  | Error err -> failwith (Format.asprintf "%a" Pipeline.pp_error err)

let reload_schedule ~count ~reloads =
  List.init reloads (fun k -> ((k + 1) * count / (reloads + 1), hot_reload k))

(* A serving engine over the healthy population, optionally with the
   armed §2.2 crasher in front of it. *)
let build_population_engine ?policy ~with_crasher () =
  let world = World.create_populated () in
  let engine = Serve.create ?policy world in
  if with_crasher then begin
    Bugdb.force_on world.World.bugs "hbug:probe-read-size-unchecked";
    ignore
      (Attach.attach engine.Serve.attach ~hook:"xdp"
         (load world "crasher" ~prog_type:Ebpf.Program.Kprobe crasher_items))
  end;
  List.iter
    (fun (name, items) ->
      ignore
        (Attach.attach engine.Serve.attach ~hook:"xdp"
           (load world name ~prog_type:Ebpf.Program.Socket_filter items)))
    healthy_filters;
  engine

(* [f]'s result and the JIT compiles it made, counted with telemetry on.
   In-line only: [jit.compiles] is one counter that every domain bumps. *)
let with_jit_compiles f =
  let compiles = Telemetry.Registry.counter "jit.compiles" in
  let was = Telemetry.Registry.enabled () in
  Telemetry.Registry.set_enabled true;
  Fun.protect ~finally:(fun () -> Telemetry.Registry.set_enabled was) @@ fun () ->
  let before = Telemetry.Counter.value compiles in
  let r = f () in
  (r, Telemetry.Counter.value compiles - before)

(* ---- fuzz-backed qcheck generators ---- *)

(* CFG-valid programs from the lib/fuzz grammar, driven by a qcheck-chosen
   seed so shrinking moves through seeds while every sample stays a valid
   program. *)
let gen_fuzz_shape ~dist =
  QCheck.Gen.map
    (fun seed -> Fuzz.Gen.generate ~dist (Fuzz.Rng.create (Int64.of_int seed)))
    (QCheck.Gen.int_bound 1_000_000)

let gen_fuzz_program ~dist =
  QCheck.Gen.map
    (fun shape -> Fuzz.Gen.program_of_shape_exn shape)
    (gen_fuzz_shape ~dist)

let arb_fuzz_program ~dist =
  QCheck.make
    ~print:(fun p ->
      Format.asprintf "%s (%d insns)" p.Ebpf.Program.name
        (Array.length p.Ebpf.Program.insns))
    (gen_fuzz_program ~dist)
