(* Epoch-based serving core tests: builder staging and atomic publish,
   pin/retire grace periods on the virtual clock, the epoch-transition
   log, the stale-pooled-hctx regression the epoch pinning closes, and
   the qcheck property that a stream with hot reloads at arbitrary event
   boundaries is observably identical to quiescing, reloading
   stop-the-world and resuming. *)

open Untenable
module World = Framework.World
module Epoch = Framework.Epoch
module Pipeline = Framework.Pipeline
module Invoke = Framework.Invoke
module Attach = Framework.Attach
module Serve = Framework.Serve
module Verdict_cache = Framework.Verdict_cache
module Vclock = Kernel_sim.Vclock
module Kernel = Kernel_sim.Kernel
module Program = Ebpf.Program
open Ebpf.Asm

let h = Helpers.Registry.id_of_name

let load_exn world ?(name = "p") items =
  match
    Pipeline.load_ebpf world
      (Program.of_items_exn ~name ~prog_type:Program.Kprobe items)
  with
  | Ok loaded -> loaded
  | Error e -> Alcotest.failf "load %s: %a" name Pipeline.pp_error e

let prog_id_of = function
  | Pipeline.Ebpf_prog { prog_id; _ } -> prog_id
  | Pipeline.Rustlite_ext _ -> Alcotest.fail "expected an eBPF handle"

(* ---------------- builder / publish ---------------- *)

let test_builder_publish () =
  let world = World.create_populated () in
  Alcotest.(check int) "genesis epoch" 1 (Epoch.current_epoch world.World.epochs);
  let loaded = load_exn world ~name:"a" [ mov_i r0 1; exit_ ] in
  let a_id = prog_id_of loaded in
  Alcotest.(check int) "load published epoch 2" 2
    (Epoch.current_epoch world.World.epochs);
  let snap =
    World.reconfigure world (fun b -> Epoch.set_tail_call b ~index:0 ~prog_id:a_id)
  in
  Alcotest.(check int) "reconfigure published epoch 3" 3 snap.Epoch.epoch;
  Alcotest.(check (option int)) "tail target visible" (Some a_id)
    (Epoch.tail_target snap 0);
  Alcotest.(check int) "one program" 1 (List.length (World.progs_sorted world));
  (* nothing pinned the superseded snapshots: they retired at once *)
  Alcotest.(check int) "no grace pending" 0
    (Epoch.grace_pending world.World.epochs);
  Alcotest.(check int) "published twice" 2 (Epoch.published world.World.epochs);
  Alcotest.(check int) "retired twice" 2 (Epoch.retired world.World.epochs);
  match Epoch.transitions world.World.epochs with
  | [ t2; t3 ] ->
    Alcotest.(check int) "t2 is epoch 2" 2 t2.Epoch.epoch;
    Alcotest.(check int) "t2 staged one load" 1 t2.Epoch.loads;
    Alcotest.(check int) "t3 staged one rewire" 1 t3.Epoch.tail_call_updates;
    Alcotest.(check bool) "t2 grace recorded" true (t2.Epoch.grace_ns <> None)
  | l -> Alcotest.failf "expected 2 transitions, got %d" (List.length l)

let test_builder_single_shot () =
  let world = World.create_populated () in
  let b = Epoch.begin_ world.World.epochs in
  ignore (Epoch.publish b);
  Alcotest.check_raises "second publish raises"
    (Invalid_argument "Epoch: builder already published") (fun () ->
      ignore (Epoch.publish b))

let test_failed_load_publishes_nothing () =
  let world = World.create_populated () in
  let before = Epoch.current_epoch world.World.epochs in
  let bad =
    Program.of_items_exn ~name:"bad" ~prog_type:Program.Kprobe
      [ mov_i r2 0; ldxdw r0 r2 0; exit_ ]
  in
  (match Pipeline.load_ebpf world bad with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected a reject");
  Alcotest.(check int) "rejected load swaps no epoch" before
    (Epoch.current_epoch world.World.epochs)

(* ---------------- grace periods ---------------- *)

let test_pin_blocks_retirement () =
  let world = World.create_populated () in
  let clock = world.World.kernel.Kernel.clock in
  let pinned = World.pin world in
  let retired0 = Epoch.retired world.World.epochs in
  ignore (World.reconfigure world (fun _ -> ()));
  Alcotest.(check int) "superseded epoch waits for the pin" 1
    (Epoch.grace_pending world.World.epochs);
  Alcotest.(check int) "not retired yet" retired0
    (Epoch.retired world.World.epochs);
  Vclock.advance clock 500L;
  World.unpin world pinned;
  Alcotest.(check int) "unpin retires it" 0
    (Epoch.grace_pending world.World.epochs);
  Alcotest.(check int) "retirement counted" (retired0 + 1)
    (Epoch.retired world.World.epochs);
  (* the grace period covers the 500ns the pin held the epoch open *)
  match Epoch.transitions world.World.epochs with
  | [] -> Alcotest.fail "expected a transition"
  | l -> (
    match (List.rev l : Epoch.transition list) with
    | last :: _ ->
      Alcotest.(check bool) "grace >= 500ns" true
        (match last.Epoch.grace_ns with Some g -> g >= 500L | None -> false)
    | [] -> assert false)

let test_retain_retired_raises () =
  let world = World.create_populated () in
  let old = World.current world in
  ignore (World.reconfigure world (fun _ -> ()));
  (* [old] retired instantly (no pins); pinning it again must be refused *)
  Alcotest.check_raises "retired snapshots cannot be re-pinned"
    (Invalid_argument "Epoch.retain: snapshot already retired") (fun () ->
      ignore (Epoch.retain world.World.epochs old))

(* ---------------- stale pooled-hctx regression ---------------- *)

(* The bug the epoch split closes: with a live mutable prog table, an
   unload (or tail-call rewire) published between `sync_hctx` and the
   tail-call chase could tear an in-flight invocation's world view.  Now
   every invocation pins one snapshot: a reader holding the old epoch
   still resolves the unloaded program, the current epoch cleanly
   reports the missing target (-22, like a cleared prog-array slot) —
   never a half-applied mix. *)
let test_unload_epoch_isolation () =
  let world = World.create_populated () in
  let b_id = prog_id_of (load_exn world ~name:"b" [ mov_i r0 55; exit_ ]) in
  World.set_tail_call world ~index:0 ~prog_id:b_id;
  let caller =
    load_exn world ~name:"a"
      [ mov_r r1 r1; mov_i r2 0; mov_i r3 0; call (h "bpf_tail_call");
        mov_i r0 1; exit_ ]
  in
  let ictx = Invoke.create world in
  let run ?snap () = (Invoke.run ~ictx ?snap world caller).Invoke.outcome in
  Alcotest.(check bool) "chain wired: a -> b -> 55" true (run () = Invoke.Finished 55L);
  (* pin the pre-unload epoch, as an in-flight event would *)
  let old = World.pin world in
  Alcotest.(check bool) "unload hits" true (World.unload world ~prog_id:b_id);
  Alcotest.(check bool) "pinned reader still resolves the unloaded prog" true
    (run ~snap:old () = Invoke.Finished 55L);
  Alcotest.(check bool) "current epoch reports the dangling slot" true
    (run () = Invoke.Finished (-22L));
  World.unpin world old;
  Alcotest.(check int) "old epoch retires once released" 0
    (Epoch.grace_pending world.World.epochs)

(* ---------------- cross-epoch verdict reuse ---------------- *)

let test_cross_epoch_cache_reuse () =
  let world = World.create_populated () in
  let items = [ mov_i r0 9; exit_ ] in
  ignore (load_exn world ~name:"c" items);
  (* an unrelated epoch swap must not cold-start the verdict cache *)
  World.set_tail_call world ~index:3 ~prog_id:999;
  ignore (load_exn world ~name:"c" items);
  Alcotest.(check int) "hit carried across the swap" 1
    (Verdict_cache.hits world.World.vcache);
  Alcotest.(check int) "counted as cross-epoch reuse" 1
    (Verdict_cache.cross_epoch_reuse world.World.vcache)

(* ---------------- epoch-swap = stop-the-world (qcheck) ---------------- *)

(* Two tail-call targets; each scheduled reload flips the index-0 slot
   between them.  The caller's return value is therefore a function of
   which epoch its event pinned — exactly the observable a torn swap
   would corrupt. *)
let build_reload_world () =
  let world = World.create_populated () in
  let engine = Serve.create world in
  let b1 = prog_id_of (load_exn world ~name:"b1" [ mov_i r0 55; exit_ ]) in
  let b2 = prog_id_of (load_exn world ~name:"b2" [ mov_i r0 77; exit_ ]) in
  World.set_tail_call world ~index:0 ~prog_id:b1;
  let caller =
    load_exn world ~name:"caller"
      [ mov_r r1 r1; mov_i r2 0; mov_i r3 0; call (h "bpf_tail_call");
        mov_i r0 1; exit_ ]
  in
  ignore (Attach.attach engine.Serve.attach ~hook:"xdp" caller);
  ignore
    (Attach.attach engine.Serve.attach ~hook:"xdp"
       (load_exn world ~name:"len" [ mov_i r0 2; exit_ ]));
  (engine, b1, b2)

(* a pure packet generator: identical whether the stream is run whole or
   in segments (the default xorshift generator is stateful) *)
let pure_gen i = Bytes.make (8 + (i mod 5)) (Char.chr (i land 0xff))

let target_for ~b1 ~b2 k = if k mod 2 = 0 then b2 else b1

let run_with_reloads ~count indices =
  let engine, b1, b2 = build_reload_world () in
  let reload =
    List.mapi
      (fun k idx ->
        ( idx,
          fun _e b ->
            Epoch.set_tail_call b ~index:0 ~prog_id:(target_for ~b1 ~b2 k) ))
      indices
  in
  let s =
    Serve.run engine
      (Serve.plan ~gen:pure_gen ~reloads:reload ~record_checksums:true
         ~hook:"xdp" ~count ())
  in
  (s.Serve.event_checksums, s.Serve.totals.Serve.reloads)

(* The oracle: stop the stream entirely at each reload boundary, publish
   the same change, resume on the next segment. *)
let run_stop_the_world ~count indices =
  let engine, b1, b2 = build_reload_world () in
  let world = engine.Serve.world in
  let checksums = Array.make count 0L in
  let run_segment ~from ~until =
    if until > from then begin
      let s =
        Serve.run engine
          (Serve.plan ~record_checksums:true ~hook:"xdp"
             ~gen:(fun i -> pure_gen (i + from))
             ~count:(until - from) ())
      in
      Array.blit s.Serve.event_checksums 0 checksums from (until - from)
    end
  in
  let pos = ref 0 in
  List.iteri
    (fun k idx ->
      run_segment ~from:!pos ~until:idx;
      pos := idx;
      World.set_tail_call world ~index:0 ~prog_id:(target_for ~b1 ~b2 k))
    indices;
  run_segment ~from:!pos ~until:count;
  checksums

let gen_reload_indices ~count =
  QCheck.Gen.(
    map
      (fun l -> List.sort_uniq Int.compare l)
      (list_size (int_range 0 4) (int_range 0 (count - 1))))

let reload_equivalence_property =
  let count = 24 in
  QCheck.Test.make ~count:40
    ~name:"epoch-swap stream = stop-the-world reload"
    (QCheck.make (gen_reload_indices ~count))
    (fun indices ->
      let with_reloads, applied = run_with_reloads ~count indices in
      let oracle = run_stop_the_world ~count indices in
      applied = List.length indices && with_reloads = oracle)

(* ---------------- dispatch accounting under reloads ---------------- *)

let test_stream_per_epoch_counts () =
  let engine, b1, b2 = build_reload_world () in
  ignore b1;
  let reload =
    [ (10, fun _e b -> Epoch.set_tail_call b ~index:0 ~prog_id:b2) ]
  in
  let s =
    Serve.run engine
      (Serve.plan ~reloads:reload ~gen:pure_gen ~hook:"xdp" ~count:30 ())
  in
  Alcotest.(check int) "one reload applied" 1 s.Serve.totals.Serve.reloads;
  (* setup published five epochs (three loads, the rewire, one more
     load), so the stream starts on epoch 6 and the reload publishes 7 *)
  Alcotest.(check (list (pair int int))) "events split across the swap"
    [ (6, 10); (7, 20) ] s.Serve.totals.Serve.per_epoch

let suite =
  [
    Alcotest.test_case "builder stages, publish swaps" `Quick test_builder_publish;
    Alcotest.test_case "builder is single-shot" `Quick test_builder_single_shot;
    Alcotest.test_case "failed load publishes nothing" `Quick
      test_failed_load_publishes_nothing;
    Alcotest.test_case "pin blocks retirement, unpin retires" `Quick
      test_pin_blocks_retirement;
    Alcotest.test_case "retired snapshots cannot be re-pinned" `Quick
      test_retain_retired_raises;
    Alcotest.test_case "unload isolation (stale-hctx regression)" `Quick
      test_unload_epoch_isolation;
    Alcotest.test_case "verdicts survive unrelated epoch swaps" `Quick
      test_cross_epoch_cache_reuse;
    QCheck_alcotest.to_alcotest reload_equivalence_property;
    Alcotest.test_case "per-epoch event accounting" `Quick
      test_stream_per_epoch_counts;
  ]
