(* Staged-pipeline tests: the shared hash library, content-addressed
   program digests, per-stage typed errors, the verdict cache (hit/miss
   accounting, observational equivalence of hits, invalidation on
   vconfig/Vbug/Bugdb mutation), pooled invocation contexts, and the
   attach/dispatch engine. *)

open Untenable
module World = Framework.World
module Pipeline = Framework.Pipeline
module Invoke = Framework.Invoke
module Attach = Framework.Attach
module Serve = Framework.Serve
module Supervisor = Framework.Supervisor
module Verdict_cache = Framework.Verdict_cache
module Vconfig = Bpf_verifier.Verifier
module Program = Ebpf.Program
module Toolchain = Rustlite.Toolchain
open Ebpf.Asm

let h = Helpers.Registry.id_of_name

let stage = Alcotest.testable (Fmt.of_to_string Pipeline.stage_name) ( = )

let trivial_prog ?(name = "triv") () =
  Program.of_items_exn ~name ~prog_type:Program.Kprobe [ mov_i r0 7; exit_ ]

(* ---------------- hash / digests ---------------- *)

(* The SHA-256 computations [f] makes, and its result. *)
let sha256_calls f =
  let before = Hash.Sha256.calls () in
  let r = f () in
  (Hash.Sha256.calls () - before, r)

let test_sha256_vectors () =
  (* FIPS 180-2 test vectors *)
  Alcotest.(check string) "empty"
    "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    (Hash.Sha256.hex_digest "");
  Alcotest.(check string) "abc"
    "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    (Hash.Sha256.hex_digest "abc");
  (* rustlite's Sign re-exports the same implementation *)
  Alcotest.(check string) "sign re-export" (Hash.Sha256.hex_digest "abc")
    (Rustlite.Sign.to_hex (Rustlite.Sign.sha256 "abc"));
  (* the call counter the load and serve budgets below read *)
  let n, _ = sha256_calls (fun () -> Hash.Sha256.hex_digest "abc") in
  Alcotest.(check int) "one count per digest" 1 n;
  let n, _ = sha256_calls (fun () -> Hash.Sha256.hmac ~key:"k" "abc") in
  Alcotest.(check int) "two counts per hmac" 2 n

let test_program_digest () =
  let a = trivial_prog () and a' = trivial_prog () in
  Alcotest.(check string) "stable across rebuilds" (Program.digest a)
    (Program.digest a');
  let b =
    Program.of_items_exn ~name:"triv" ~prog_type:Program.Kprobe
      [ mov_i r0 8; exit_ ]
  in
  Alcotest.(check bool) "content-sensitive" false
    (String.equal (Program.digest a) (Program.digest b));
  let c =
    Program.of_items_exn ~name:"triv" ~prog_type:Program.Tracepoint
      [ mov_i r0 7; exit_ ]
  in
  Alcotest.(check bool) "prog-type-sensitive" false
    (String.equal (Program.digest a) (Program.digest c))

let test_artifact_digest () =
  let src = { Toolchain.name = "d"; maps = []; body = Rustlite.Ast.Lit_int 1L } in
  match Toolchain.compile src with
  | Error _ -> Alcotest.fail "compile failed"
  | Ok ext ->
    Alcotest.(check string) "digest of payload"
      (Hash.Sha256.hex_digest ext.Toolchain.payload)
      (Toolchain.artifact_digest ext)

(* ---------------- per-stage errors ---------------- *)

let test_admission_error () =
  let world = World.create_populated () in
  World.set_vconfig world { (World.vconfig world) with Vconfig.max_insns = 3 };
  let prog =
    Program.of_items_exn ~name:"big" ~prog_type:Program.Kprobe
      [ mov_i r0 0; mov_i r1 0; mov_i r2 0; mov_i r3 0; exit_ ]
  in
  match Pipeline.load_ebpf world prog with
  | Error (Pipeline.Too_many_insns { count = 5; max = 3 } as e) ->
    Alcotest.check stage "stage" Pipeline.Admission (Pipeline.stage_of_error e)
  | _ -> Alcotest.fail "expected Too_many_insns {5; 3}"

let test_fixup_error () =
  let world = World.create_populated () in
  let prog =
    Program.of_items_exn ~name:"unres" ~prog_type:Program.Kprobe
      [ call_named "no_such_helper"; mov_i r0 0; exit_ ]
  in
  match Pipeline.load_ebpf world prog with
  | Error (Pipeline.Unknown_helper "no_such_helper" as e) ->
    Alcotest.check stage "stage" Pipeline.Fixup (Pipeline.stage_of_error e)
  | _ -> Alcotest.fail "expected Unknown_helper"

let test_gate_reject_error () =
  let world = World.create_populated () in
  let prog =
    (* loads through an uninitialized pointer: always rejected *)
    Program.of_items_exn ~name:"bad" ~prog_type:Program.Kprobe
      [ mov_i r2 0; ldxdw r0 r2 0; exit_ ]
  in
  match Pipeline.load_ebpf world prog with
  | Error (Pipeline.Verifier_rejected _ as e) ->
    Alcotest.check stage "stage" Pipeline.Gate (Pipeline.stage_of_error e)
  | _ -> Alcotest.fail "expected Verifier_rejected"

let test_gate_crash_not_cached () =
  let world = World.create_populated () in
  (World.vconfig world).Vconfig.bugs.Bpf_verifier.Vbug.loop_inline_uaf <- true;
  let prog =
    Program.of_items_exn ~name:"loop" ~prog_type:Program.Kprobe
      [ mov_i r1 4; mov_label r2 "cb"; mov_i r3 0; mov_i r4 0;
        call (h "bpf_loop"); mov_i r0 0; exit_; label "cb"; mov_i r0 0; exit_ ]
  in
  (match Pipeline.load_ebpf world prog with
  | Error (Pipeline.Verifier_crashed _ as e) ->
    Alcotest.check stage "stage" Pipeline.Gate (Pipeline.stage_of_error e)
  | _ -> Alcotest.fail "expected Verifier_crashed");
  Alcotest.(check int) "crash verdict never cached" 0
    (Verdict_cache.size world.World.vcache);
  (* a second load must crash again (each one oopses the kernel) *)
  match Pipeline.load_ebpf world prog with
  | Error (Pipeline.Verifier_crashed _) -> ()
  | _ -> Alcotest.fail "expected second Verifier_crashed"

let test_gate_signature_error () =
  let src = { Toolchain.name = "ok"; maps = []; body = Rustlite.Ast.Lit_int 1L } in
  let ext = Result.get_ok (Toolchain.compile src) in
  let tampered = { ext with Toolchain.src = { src with Toolchain.name = "evil" } } in
  let world = World.create_populated () in
  match Pipeline.load_rustlite world tampered with
  | Error (Pipeline.Bad_signature as e) ->
    Alcotest.check stage "stage" Pipeline.Gate (Pipeline.stage_of_error e)
  | _ -> Alcotest.fail "expected Bad_signature"

let test_link_duplicate_map () =
  let def name =
    { Maps.Bpf_map.name; kind = Maps.Bpf_map.Array; key_size = 4;
      value_size = 8; max_entries = 4; lock_off = None }
  in
  let src =
    { Toolchain.name = "dup"; maps = [ def "counts"; def "counts" ];
      body = Rustlite.Ast.Lit_int 1L }
  in
  let ext = Result.get_ok (Toolchain.compile src) in
  let world = World.create_populated () in
  match Pipeline.load_rustlite world ext with
  | Error (Pipeline.Duplicate_map "counts" as e) ->
    Alcotest.check stage "stage" Pipeline.Link (Pipeline.stage_of_error e)
  | _ -> Alcotest.fail "expected Duplicate_map"

(* ---------------- verdict cache ---------------- *)

let test_cache_hit_accounting () =
  let world = World.create_populated () in
  let prog = trivial_prog () in
  let vstats1 =
    match Pipeline.load_ebpf world prog with
    | Ok (Pipeline.Ebpf_prog { vstats; _ }) -> vstats
    | _ -> Alcotest.fail "first load failed"
  in
  let vstats2 =
    match Pipeline.load_ebpf world prog with
    | Ok (Pipeline.Ebpf_prog { vstats; _ }) -> vstats
    | _ -> Alcotest.fail "second load failed"
  in
  Alcotest.(check int) "one miss" 1 (Verdict_cache.misses world.World.vcache);
  Alcotest.(check int) "one hit" 1 (Verdict_cache.hits world.World.vcache);
  Alcotest.(check int) "one entry" 1 (Verdict_cache.size world.World.vcache);
  Alcotest.(check bool) "replayed stats identical" true (vstats1 = vstats2);
  (* distinct prog ids: a cache hit still links a fresh program *)
  match (Pipeline.load_ebpf world prog, Pipeline.load_ebpf world prog) with
  | Ok (Pipeline.Ebpf_prog a), Ok (Pipeline.Ebpf_prog b) ->
    Alcotest.(check bool) "fresh prog ids" true (a.prog_id <> b.prog_id)
  | _ -> Alcotest.fail "repeat loads failed"

let test_cache_rejects_cached () =
  let world = World.create_populated () in
  let bad =
    Program.of_items_exn ~name:"bad" ~prog_type:Program.Kprobe
      [ mov_i r2 0; ldxdw r0 r2 0; exit_ ]
  in
  (match Pipeline.load_ebpf world bad with
  | Error (Pipeline.Verifier_rejected _) -> ()
  | _ -> Alcotest.fail "expected reject");
  (match Pipeline.load_ebpf world bad with
  | Error (Pipeline.Verifier_rejected _) -> ()
  | _ -> Alcotest.fail "expected cached reject");
  Alcotest.(check int) "reject was cached" 1 (Verdict_cache.hits world.World.vcache)

(* The mutability footgun: vconfig changes by publishing an epoch, while
   the Vbug toggles inside it and the Bugdb injection sets are mutated in
   place.  Changing any of them must invalidate cached verdicts, not
   replay a stale accept. *)
let test_invalidation_vconfig () =
  let world = World.create_populated () in
  (* a bounded loop: accepted by default, rejected pre-5.3 (allow_loops) *)
  let prog =
    Program.of_items_exn ~name:"loop4" ~prog_type:Program.Kprobe
      [ mov_i r0 4; label "l"; sub_i r0 1; jne_i r0 0 "l"; exit_ ]
  in
  (match Pipeline.load_ebpf world prog with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "load failed");
  World.set_vconfig world
    { (World.vconfig world) with Vconfig.allow_loops = false };
  (match Pipeline.load_ebpf world prog with
  | Error (Pipeline.Verifier_rejected _) -> ()
  | Ok _ -> Alcotest.fail "STALE VERDICT: config mutation replayed the old accept"
  | Error e ->
    Alcotest.failf "unexpected: %s" (Format.asprintf "%a" Pipeline.pp_error e));
  (* and back: restoring the config accepts again (and hits the old entry) *)
  World.set_vconfig world { (World.vconfig world) with Vconfig.allow_loops = true };
  let hits_before = Verdict_cache.hits world.World.vcache in
  (match Pipeline.load_ebpf world prog with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "restored config should accept");
  Alcotest.(check int) "restored config hits the original entry"
    (hits_before + 1)
    (Verdict_cache.hits world.World.vcache)

let test_invalidation_vbug () =
  let world = World.create_populated () in
  let prog = trivial_prog () in
  ignore (Pipeline.load_ebpf world prog);
  let misses_before = Verdict_cache.misses world.World.vcache in
  (World.vconfig world).Vconfig.bugs.Bpf_verifier.Vbug.ptr_arith_or_null <- true;
  ignore (Pipeline.load_ebpf world prog);
  Alcotest.(check int) "vbug toggle forces a miss" (misses_before + 1)
    (Verdict_cache.misses world.World.vcache)

let test_invalidation_bugdb () =
  let world = World.create_populated () in
  let prog = trivial_prog () in
  ignore (Pipeline.load_ebpf world prog);
  let misses_before = Verdict_cache.misses world.World.vcache in
  Helpers.Bugdb.force_on world.World.bugs "hbug:ringbuf-double-submit";
  ignore (Pipeline.load_ebpf world prog);
  Alcotest.(check int) "bugdb injection forces a miss" (misses_before + 1)
    (Verdict_cache.misses world.World.vcache);
  Helpers.Bugdb.force_off world.World.bugs "hbug:ringbuf-double-submit";
  let hits_before = Verdict_cache.hits world.World.vcache in
  ignore (Pipeline.load_ebpf world prog);
  Alcotest.(check int) "restoring the bug set hits again" (hits_before + 1)
    (Verdict_cache.hits world.World.vcache)

(* aconfig is the same footgun: the verdict fingerprint folds in the
   analysis configuration, so publishing one with a lint pass toggled
   must invalidate cached verdicts exactly like a vconfig change. *)
let test_invalidation_aconfig () =
  let world = World.create_populated () in
  let prog = trivial_prog () in
  ignore (Pipeline.load_ebpf world prog);
  let misses_before = Verdict_cache.misses world.World.vcache in
  World.set_aconfig world
    { (World.aconfig world) with Analysis.Driver.elide = false };
  ignore (Pipeline.load_ebpf world prog);
  Alcotest.(check int) "analysis config change forces a verdict miss"
    (misses_before + 1)
    (Verdict_cache.misses world.World.vcache);
  World.set_aconfig world
    { (World.aconfig world) with Analysis.Driver.elide = true };
  let hits_before = Verdict_cache.hits world.World.vcache in
  ignore (Pipeline.load_ebpf world prog);
  Alcotest.(check int) "restored analysis config hits again" (hits_before + 1)
    (Verdict_cache.hits world.World.vcache)

let test_analysis_report_cached () =
  let world = World.create_populated () in
  let prog = trivial_prog () in
  (match Pipeline.load_ebpf world prog with
  | Ok (Pipeline.Ebpf_prog { analysis = Some _; _ }) -> ()
  | Ok _ -> Alcotest.fail "expected an analysis report on the handle"
  | Error _ -> Alcotest.fail "load failed");
  Alcotest.(check int) "one analysis miss" 1
    (Verdict_cache.analysis_misses world.World.vcache);
  (match Pipeline.load_ebpf world prog with
  | Ok (Pipeline.Ebpf_prog { analysis = Some _; _ }) -> ()
  | _ -> Alcotest.fail "second load failed");
  Alcotest.(check int) "second load hits the analysis table" 1
    (Verdict_cache.analysis_hits world.World.vcache);
  Alcotest.(check int) "one analysis entry" 1
    (Verdict_cache.analysis_size world.World.vcache);
  (* all_off skips the stage entirely: no report on the handle and no
     further analysis-table traffic *)
  World.set_aconfig world Analysis.Driver.all_off;
  match Pipeline.load_ebpf world prog with
  | Ok (Pipeline.Ebpf_prog { analysis = None; _ }) ->
    Alcotest.(check int) "skipped stage leaves the table alone" 1
      (Verdict_cache.analysis_misses world.World.vcache)
  | Ok _ -> Alcotest.fail "all_off must skip the analysis stage"
  | Error _ -> Alcotest.fail "load failed"

(* qcheck: for random helper-free ALU programs, a cache-hit load is
   observationally identical to a fresh verification — same verdict, same
   stats, same run outcome. *)
let gen_alu_prog =
  let open QCheck.Gen in
  let reg_of = function
    | 0 -> r0 | 1 -> r2 | 2 -> r3 | 3 -> r4 | _ -> r5
  in
  let gen_op =
    oneof
      [ map2 (fun d v -> add_i (reg_of d) v) (int_bound 4) (int_range (-1000) 1000);
        map2 (fun d v -> and_i (reg_of d) v) (int_bound 4) (int_range 0 0xffff);
        map2 (fun d v -> or_i (reg_of d) v) (int_bound 4) (int_range 0 0xffff);
        map2 (fun d v -> lsh_i (reg_of d) v) (int_bound 4) (int_range 0 31);
        map2 (fun d s -> mov_r (reg_of d) (reg_of s)) (int_bound 4) (int_bound 4);
        map2 (fun d s -> add_r (reg_of d) (reg_of s)) (int_bound 4) (int_bound 4);
        map2 (fun d v -> mov_i (reg_of d) v) (int_bound 4) (int_range (-1000) 1000) ]
  in
  let init = List.init 5 (fun i -> mov_i (reg_of i) i) in
  map
    (fun body ->
      Program.of_items_exn ~name:"qprog" ~prog_type:Program.Kprobe
        (init @ body @ [ exit_ ]))
    (list_size (int_range 0 30) gen_op)

let cache_equivalence_property =
  QCheck.Test.make ~count:100
    ~name:"cache-hit load observationally identical to fresh verify"
    (QCheck.make gen_alu_prog) (fun prog ->
      let w1 = World.create_populated () in
      let fresh = Pipeline.load_ebpf ~use_cache:false w1 prog in
      let first = Pipeline.load_ebpf w1 prog in
      let hit = Pipeline.load_ebpf w1 prog in
      match (fresh, first, hit) with
      | Ok (Pipeline.Ebpf_prog f), Ok (Pipeline.Ebpf_prog a), Ok (Pipeline.Ebpf_prog b)
        ->
        f.vstats = a.vstats && a.vstats = b.vstats
        && (Invoke.run w1 (Pipeline.Ebpf_prog a)).Invoke.outcome
           = (Invoke.run w1 (Pipeline.Ebpf_prog b)).Invoke.outcome
      | Error (Pipeline.Verifier_rejected x), Error (Pipeline.Verifier_rejected y),
        Error (Pipeline.Verifier_rejected z) ->
        x = y && y = z
      | _ -> false)

(* ---------------- pooled invocation ---------------- *)

let test_reuse_matches_fresh () =
  let world = World.create_populated () in
  let prog =
    (* ctx-reading + prandom: exercises ctx region fill and hctx reset *)
    Program.of_items_exn ~name:"mix" ~prog_type:Program.Socket_filter
      [ ldxw r6 r1 0; call (h "bpf_get_prandom_u32"); and_i r0 0xff;
        add_r r0 r6; exit_ ]
  in
  let loaded = Result.get_ok (Pipeline.load_ebpf world prog) in
  let opts = { Invoke.default_opts with Invoke.skb_payload = Some (Bytes.make 50 'x') } in
  let fresh1 = Invoke.run ~opts world loaded in
  let ictx = Invoke.create world in
  let pooled1 = Invoke.run ~opts ~ictx world loaded in
  let pooled2 = Invoke.run ~opts ~ictx world loaded in
  Alcotest.(check bool) "pooled matches one-shot" true
    (fresh1.Invoke.outcome = pooled1.Invoke.outcome);
  Alcotest.(check bool) "reuse is deterministic (rng reseeded)" true
    (pooled1.Invoke.outcome = pooled2.Invoke.outcome);
  (* a smaller packet through the same pooled skb buffer *)
  let small = { opts with Invoke.skb_payload = Some (Bytes.make 7 'y') } in
  Alcotest.(check bool) "shrunk packet sees its own length" true
    ((Invoke.run ~opts:small ~ictx world loaded).Invoke.outcome
    = (Invoke.run ~opts:small world loaded).Invoke.outcome)

let test_reuse_keeps_address_space_flat () =
  let world = World.create_populated () in
  let prog =
    Program.of_items_exn ~name:"len" ~prog_type:Program.Socket_filter
      [ ldxw r0 r1 0; exit_ ]
  in
  let loaded = Result.get_ok (Pipeline.load_ebpf world prog) in
  let opts = { Invoke.default_opts with Invoke.skb_payload = Some (Bytes.make 32 'p') } in
  let ictx = Invoke.create world in
  ignore (Invoke.run ~opts ~ictx world loaded);
  let regions_after_one =
    List.length world.World.kernel.Kernel_sim.Kernel.mem.Kernel_sim.Kmem.regions
  in
  for _ = 1 to 50 do
    ignore (Invoke.run ~opts ~ictx world loaded)
  done;
  let regions_after_many =
    List.length world.World.kernel.Kernel_sim.Kernel.mem.Kernel_sim.Kmem.regions
  in
  Alcotest.(check int) "no per-invocation region growth" regions_after_one
    regions_after_many

(* A pooled context keys its JIT images on the branch-bug flag and on the
   elision vector: flipping either between runs on one context selects (or
   compiles) the matching image, and every run equals a one-shot run. *)
let test_pooled_jit_image_keys () =
  let world = World.create_populated () in
  let load name items =
    Result.get_ok
      (Pipeline.load_ebpf world
         (Program.of_items_exn ~name ~prog_type:Program.Socket_filter items))
  in
  let ictx = Invoke.create world in
  (* a guard trip's time, taken from the invocation's start *)
  let outcome_of f =
    let clock = world.World.kernel.Kernel_sim.Kernel.clock in
    let t0 = Kernel_sim.Vclock.now clock in
    match (f ()).Invoke.outcome with
    | Invoke.Exhausted (r, t) ->
      Invoke.Exhausted (r, { t with Runtime.Guard.at_ns = Int64.sub t.Runtime.Guard.at_ns t0 })
    | o -> o
  in
  let run loaded opts =
    let one_shot = outcome_of (fun () -> Invoke.run ~opts world loaded) in
    let pooled, compiles =
      Generators.with_jit_compiles (fun () ->
          outcome_of (fun () -> Invoke.run ~opts ~ictx world loaded))
    in
    Alcotest.(check bool) "pooled run equals a one-shot run" true (pooled = one_shot);
    (pooled, compiles)
  in
  let jit = { Invoke.default_opts with Invoke.use_jit = true; fuel = Some 10_000L } in
  (* the CVE-2021-29154 loop: five rounds, or a hang under the branch bug *)
  let cve =
    load "cve"
      [ mov_i r0 0; mov_i r6 5; label "l"; add_i r0 1; sub_i r6 1; jne_i r6 0 "l";
        exit_ ]
  in
  let five = function Invoke.Finished 5L -> true | _ -> false in
  let hung = function Invoke.Exhausted (Invoke.Fuel, _) -> true | _ -> false in
  List.iter
    (fun (bug, expect, compiled, name) ->
      let o, n = run cve { jit with Invoke.jit_branch_bug = bug } in
      Alcotest.(check bool) (name ^ ": outcome") true (expect o);
      Alcotest.(check int) (name ^ ": compiles") compiled n)
    [ (false, five, 1, "correct JIT"); (true, hung, 1, "branch bug");
      (false, five, 0, "correct JIT again") ];
  (* a guard the elide pass resolves *)
  let guarded =
    load "guarded"
      [ mov_i r6 4; jgt_i r6 10 "drop"; mov_i r0 1; exit_; label "drop"; mov_i r0 0;
        exit_ ]
  in
  (match guarded with
  | Pipeline.Ebpf_prog { analysis = Some a; _ } ->
    Alcotest.(check bool) "the guard is elided" true
      (Array.exists (fun t -> t >= 0) a.Analysis.Driver.elide)
  | _ -> Alcotest.fail "no analysis on the guarded program");
  List.iter
    (fun (use_elision, compiled, name) ->
      let o, n = run guarded { jit with Invoke.use_elision } in
      Alcotest.(check bool) (name ^ ": outcome") true (o = Invoke.Finished 1L);
      Alcotest.(check int) (name ^ ": compiles") compiled n)
    [ (true, 1, "elided"); (false, 1, "not elided"); (true, 0, "elided again");
      (false, 0, "not elided again") ]

let test_ictx_world_mismatch () =
  let w1 = World.create_populated () and w2 = World.create_populated () in
  let loaded = Result.get_ok (Pipeline.load_ebpf w1 (trivial_prog ())) in
  let ictx = Invoke.create w2 in
  Alcotest.check_raises "wrong world rejected"
    (Invalid_argument "Invoke.run: invocation context belongs to a different world")
    (fun () -> ignore (Invoke.run ~ictx w1 loaded))

(* ---------------- attach / dispatch ---------------- *)

let load_filter world name items =
  Result.get_ok
    (Pipeline.load_ebpf world
       (Program.of_items_exn ~name ~prog_type:Program.Socket_filter items))

let test_attach_order_and_detach () =
  let world = World.create_populated () in
  let reg = Attach.create () in
  let a = Attach.attach reg ~hook:"xdp" (load_filter world "a" [ mov_i r0 1; exit_ ]) in
  let _b = Attach.attach reg ~hook:"xdp" (load_filter world "b" [ mov_i r0 2; exit_ ]) in
  let _c = Attach.attach reg ~hook:"tp" (load_filter world "c" [ mov_i r0 3; exit_ ]) in
  Alcotest.(check (list string)) "hooks sorted" [ "tp"; "xdp" ] (Attach.hooks reg);
  Alcotest.(check int) "count" 3 (Attach.count reg);
  Alcotest.(check (list int)) "attach order preserved" [ a.Attach.attach_id;
    a.Attach.attach_id + 1 ]
    (List.map (fun (x : Attach.attachment) -> x.Attach.attach_id)
       (Attach.attached reg ~hook:"xdp"));
  Alcotest.(check bool) "detach hit" true (Attach.detach reg ~attach_id:a.Attach.attach_id);
  Alcotest.(check bool) "detach miss" false (Attach.detach reg ~attach_id:999);
  Alcotest.(check int) "one left on xdp" 1 (List.length (Attach.attached reg ~hook:"xdp"))

let build_engine () =
  let world = World.create_populated () in
  let engine = Serve.create world in
  List.iter
    (fun (name, items) ->
      ignore
        (Attach.attach engine.Serve.attach ~hook:"xdp"
           (load_filter world name items)))
    [ ("len", [ ldxw r0 r1 0; exit_ ]);
      ("parity", [ ldxw r6 r1 0; mov_r r0 r6; and_i r0 1; exit_ ]);
      ("fixed", [ mov_i r0 9; exit_ ]) ];
  engine

let test_dispatch_order () =
  (* one event: each extension's checksum is its single return value *)
  let s =
    Serve.run (build_engine ())
      (Serve.plan ~gen:(fun _ -> Bytes.make 33 'z') ~hook:"xdp" ~count:1 ())
  in
  Alcotest.(check (list int64)) "attach order: len, parity, fixed"
    [ 33L; 1L; 9L ]
    (List.map (fun (h : Supervisor.health) -> h.Supervisor.ret_checksum)
       s.Serve.per_ext)

let test_dispatch_deterministic () =
  let run_once () =
    (Serve.run (build_engine ())
       (Serve.plan ~seed:42L ~size:48 ~hook:"xdp" ~count:300 ()))
      .Serve.totals
  in
  let t1 = run_once () and t2 = run_once () in
  Alcotest.(check int) "events" 300 t1.Serve.events;
  Alcotest.(check int) "invocations" 900 t1.Serve.invocations;
  Alcotest.(check int) "all finished" 900 t1.Serve.finished;
  Alcotest.(check int64) "checksums match" t1.Serve.ret_checksum
    t2.Serve.ret_checksum;
  Alcotest.(check bool) "positive rate" true (t1.Serve.events_per_sec > 0.)

let test_dispatch_telemetry () =
  Telemetry.Registry.reset ();
  let engine = build_engine () in
  let _ = Serve.run engine (Serve.plan ~size:16 ~hook:"xdp" ~count:50 ()) in
  let cval name = Telemetry.Counter.value (Telemetry.Registry.counter name) in
  Alcotest.(check int) "dispatch.events" 50 (cval "dispatch.events");
  Alcotest.(check int) "dispatch.invocations" 150 (cval "dispatch.invocations");
  Alcotest.(check bool) "pipeline.cache_misses counted" true
    (cval "pipeline.cache_misses" >= 3);
  Alcotest.(check bool) "rate exported" true (cval "dispatch.events_per_sec" >= 0)

(* ---------------- SHA-256 budget ---------------- *)

(* A load hashes the fixed-up image once and the verdict fingerprint once;
   the analysis signature is hashed once per distinct aconfig, which the
   world's first load has done.  The counter also covers helpers a load
   reaches, so any new per-load hash shows here. *)
let test_load_sha256_budget () =
  let world = World.create_populated () in
  ignore
    (Pipeline.load_ebpf world
       (Program.of_items_exn ~name:"first" ~prog_type:Program.Kprobe
          [ mov_i r0 3; exit_ ]));
  let prog = trivial_prog () in
  let cold, r1 = sha256_calls (fun () -> Pipeline.load_ebpf world prog) in
  let warm, r2 = sha256_calls (fun () -> Pipeline.load_ebpf world prog) in
  Alcotest.(check bool) "both loads accepted" true
    (Result.is_ok r1 && Result.is_ok r2);
  Alcotest.(check int) "second load was the cache hit" 1
    (Verdict_cache.hits world.World.vcache);
  Alcotest.(check bool)
    (Printf.sprintf "first load: %d SHA-256 calls <= 2" cold) true (cold <= 2);
  Alcotest.(check bool)
    (Printf.sprintf "warm reload: %d SHA-256 calls <= 2" warm) true (warm <= 2)

(* Serving hashes each attachment once per segment, never per invocation:
   10 and 1,000 events cost the same, in-line and over two domains. *)
let test_serve_sha256_flat () =
  let serve ~domains count =
    let world = World.create_populated () in
    let engine = Serve.create world in
    List.iter
      (fun (name, items) ->
        ignore
          (Attach.attach engine.Serve.attach ~hook:"xdp"
             (load_filter world name items)))
      [ ("len", [ ldxw r0 r1 0; exit_ ]); ("fixed", [ mov_i r0 9; exit_ ]) ];
    fst
      (sha256_calls (fun () ->
           Serve.run engine
             (Serve.plan ~seed:7L ~size:32 ~domains ~hook:"xdp" ~count ())))
  in
  List.iter
    (fun domains ->
      let few = serve ~domains 10 and many = serve ~domains 1_000 in
      Alcotest.(check int)
        (Printf.sprintf "domains %d: 10 events vs 1,000" domains) few many;
      Alcotest.(check int)
        (Printf.sprintf "domains %d: one per attachment" domains) 2 few)
    [ 1; 2 ]

let suite =
  [
    Alcotest.test_case "sha256 vectors + sign re-export" `Quick test_sha256_vectors;
    Alcotest.test_case "program digest" `Quick test_program_digest;
    Alcotest.test_case "artifact digest" `Quick test_artifact_digest;
    Alcotest.test_case "admission: too many insns" `Quick test_admission_error;
    Alcotest.test_case "fixup: unknown helper" `Quick test_fixup_error;
    Alcotest.test_case "gate: verifier reject" `Quick test_gate_reject_error;
    Alcotest.test_case "gate: crash is never cached" `Quick test_gate_crash_not_cached;
    Alcotest.test_case "gate: bad signature" `Quick test_gate_signature_error;
    Alcotest.test_case "link: duplicate map" `Quick test_link_duplicate_map;
    Alcotest.test_case "cache hit/miss accounting" `Quick test_cache_hit_accounting;
    Alcotest.test_case "rejects are cached too" `Quick test_cache_rejects_cached;
    Alcotest.test_case "invalidation: vconfig mutation" `Quick test_invalidation_vconfig;
    Alcotest.test_case "invalidation: vbug toggle" `Quick test_invalidation_vbug;
    Alcotest.test_case "invalidation: bugdb injection" `Quick test_invalidation_bugdb;
    Alcotest.test_case "invalidation: analysis config" `Quick
      test_invalidation_aconfig;
    Alcotest.test_case "analysis reports cached beside verdicts" `Quick
      test_analysis_report_cached;
    QCheck_alcotest.to_alcotest cache_equivalence_property;
    Alcotest.test_case "pooled run matches one-shot" `Quick test_reuse_matches_fresh;
    Alcotest.test_case "pooled run keeps address space flat" `Quick
      test_reuse_keeps_address_space_flat;
    Alcotest.test_case "ictx world mismatch" `Quick test_ictx_world_mismatch;
    Alcotest.test_case "attach order and detach" `Quick test_attach_order_and_detach;
    Alcotest.test_case "dispatch order" `Quick test_dispatch_order;
    Alcotest.test_case "dispatch deterministic" `Quick test_dispatch_deterministic;
    Alcotest.test_case "dispatch telemetry" `Quick test_dispatch_telemetry;
    Alcotest.test_case "a load makes <= 2 SHA-256 calls" `Quick
      test_load_sha256_budget;
    Alcotest.test_case "serving hashes per attachment" `Quick
      test_serve_sha256_flat;
    Alcotest.test_case "pooled JIT image keys" `Quick test_pooled_jit_image_keys;
  ]
