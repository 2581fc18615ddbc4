(* Integration tests: whole-flow scenarios crossing the toolchain/verifier,
   the loaders, the runtime, and the kernel — including equivalence of the
   two architectures on the same logic. *)

open Untenable
module World = Framework.World
module Pipeline = Framework.Pipeline
module Invoke = Framework.Invoke
module Kernel = Kernel_sim.Kernel
module Bpf_map = Maps.Bpf_map
open Ebpf.Asm

let h = Helpers.Registry.id_of_name

let counter_def =
  { Bpf_map.name = "stats"; kind = Bpf_map.Array; key_size = 4; value_size = 8;
    max_entries = 1; lock_off = None }

(* the quickstart counter through path A *)
let ebpf_counter ~map_id =
  Ebpf.Program.of_items_exn ~name:"counter" ~prog_type:Ebpf.Program.Kprobe
    [ stdw r10 (-8) 0; map_fd r1 map_id; mov_r r2 r10; add_i r2 (-8);
      call (h "bpf_map_lookup_elem"); jeq_i r0 0 "miss"; ldxdw r6 r0 0;
      add_i r6 1; stxdw r0 0 r6; mov_r r0 r6; exit_;
      label "miss"; mov_i r0 (-1); exit_ ]

(* the same logic through path B *)
let rustlite_counter =
  let open Rustlite.Ast in
  { Rustlite.Toolchain.name = "counter"; maps = [ counter_def ];
    body =
      Match_option
        { scrutinee = Call ("map_get", [ Lit_str "stats"; Lit_int 0L ]);
          bind = "c";
          some_branch =
            Seq
              [ Call ("map_set",
                      [ Lit_str "stats"; Lit_int 0L; Binop (Add, Var "c", Lit_int 1L) ]);
                Binop (Add, Var "c", Lit_int 1L) ];
          none_branch = Lit_int (-1L) } }

let returns = function
  | Invoke.Finished v -> v
  | o -> Alcotest.failf "expected Finished, got %s" (Format.asprintf "%a" Invoke.pp_outcome o)

let test_paths_agree () =
  (* run each counter 5 times; the sequences of return values must agree *)
  let run_a () =
    let world = World.create_populated () in
    let m = World.register_map world counter_def in
    let loaded = Result.get_ok (Pipeline.load_ebpf world (ebpf_counter ~map_id:m.Bpf_map.id)) in
    List.init 5 (fun _ -> returns (Invoke.run world loaded).Invoke.outcome)
  in
  let run_b () =
    let world = World.create_populated () in
    let ext = Result.get_ok (Rustlite.Toolchain.compile rustlite_counter) in
    let loaded = Result.get_ok (Pipeline.load_rustlite world ext) in
    List.init 5 (fun _ -> returns (Invoke.run world loaded).Invoke.outcome)
  in
  Alcotest.(check (list int64)) "same observable behaviour" (run_a ()) (run_b ())

let test_both_paths_leave_healthy_kernels () =
  let world = World.create_populated () in
  let m = World.register_map world counter_def in
  let loaded = Result.get_ok (Pipeline.load_ebpf world (ebpf_counter ~map_id:m.Bpf_map.id)) in
  for _ = 1 to 20 do
    ignore (Invoke.run world loaded)
  done;
  Alcotest.(check bool) "healthy after 20 runs" true
    (Kernel.healthy (Kernel.health world.World.kernel))

let test_dead_kernel_stays_dead () =
  let world = World.create_populated () in
  let crasher =
    Ebpf.Program.of_items_exn ~name:"c" ~prog_type:Ebpf.Program.Kprobe
      [ stw r10 (-24) 1; stw r10 (-20) 0; stdw r10 (-16) 0; stdw r10 (-8) 0;
        mov_i r1 1; mov_r r2 r10; add_i r2 (-24); mov_i r3 24;
        call (h "bpf_sys_bpf"); mov_i r0 0; exit_ ]
  in
  let m = World.register_map world counter_def in
  ignore m;
  let loaded = Result.get_ok (Pipeline.load_ebpf world crasher) in
  (match (Invoke.run world loaded).Invoke.outcome with
  | Invoke.Crashed _ -> ()
  | o -> Alcotest.failf "expected crash, got %s" (Format.asprintf "%a" Invoke.pp_outcome o));
  Alcotest.(check bool) "kernel dead" true (Kernel.is_dead world.World.kernel)

let test_verification_vs_signature_gate_difference () =
  (* the identical *intent* (unbounded loop) is rejected by path A's gate if
     loops are disallowed, but sails through path B's gate (signature only)
     and is handled by the runtime instead *)
  let world_a =
    World.create
      ~vconfig:{ (Bpf_verifier.Verifier.default_config ()) with
                 Bpf_verifier.Verifier.allow_loops = false }
      ()
  in
  let looping =
    Ebpf.Program.of_items_exn ~name:"l" ~prog_type:Ebpf.Program.Kprobe
      [ mov_i r0 10; label "l"; sub_i r0 1; jne_i r0 0 "l"; exit_ ]
  in
  (match Pipeline.load_ebpf world_a looping with
  | Error (Pipeline.Verifier_rejected _) -> ()
  | _ -> Alcotest.fail "legacy verifier should reject the loop");
  let world_b = World.create_populated () in
  let src =
    { Rustlite.Toolchain.name = "spin"; maps = [];
      body = Rustlite.Ast.While (Rustlite.Ast.Lit_bool true, Rustlite.Ast.Lit_unit) }
  in
  let ext = Result.get_ok (Rustlite.Toolchain.compile src) in
  let loaded = Result.get_ok (Pipeline.load_rustlite world_b ext) in
  let opts = { Invoke.default_opts with Invoke.wall_ns = Some 100_000L } in
  match (Invoke.run ~opts world_b loaded).Invoke.outcome with
  | Invoke.Exhausted (Invoke.Wall_clock, _) -> ()
  | o -> Alcotest.failf "expected watchdog stop, got %s" (Format.asprintf "%a" Invoke.pp_outcome o)

let test_jit_and_interp_paths_same_result () =
  let world = World.create_populated () in
  let m = World.register_map world counter_def in
  let prog = ebpf_counter ~map_id:m.Bpf_map.id in
  let loaded = Result.get_ok (Pipeline.load_ebpf world prog) in
  let a =
    returns
      (Invoke.run ~opts:{ Invoke.default_opts with Invoke.use_jit = false }
         world loaded)
        .Invoke.outcome
  in
  let b =
    returns
      (Invoke.run ~opts:{ Invoke.default_opts with Invoke.use_jit = true }
         world loaded)
        .Invoke.outcome
  in
  Alcotest.(check int64) "interp then jit continue the same count" (Int64.add a 1L) b

let test_trace_pipeline () =
  let world = World.create_populated () in
  let prog =
    Ebpf.Program.of_items_exn ~name:"t" ~prog_type:Ebpf.Program.Kprobe
      [ (* "n=%d" *)
        stdw r10 (-8) 0;
        stw r10 (-8) 0x64253d6e (* "n=%d" little-endian *);
        mov_r r1 r10; add_i r1 (-8); mov_i r2 5; mov_i r3 42; mov_i r4 0; mov_i r5 0;
        call (h "bpf_trace_printk"); mov_i r0 0; exit_ ]
  in
  let loaded = Result.get_ok (Pipeline.load_ebpf world prog) in
  let report = Invoke.run world loaded in
  Alcotest.(check (list string)) "trace output" [ "n=42" ] report.Invoke.trace

let test_queue_program_end_to_end () =
  let world = World.create_populated () in
  let q =
    World.register_map world
      { Bpf_map.name = "q"; kind = Bpf_map.Queue; key_size = 0; value_size = 8;
        max_entries = 8; lock_off = None }
  in
  let prog =
    Ebpf.Program.of_items_exn ~name:"q" ~prog_type:Ebpf.Program.Kprobe
      [ (* push 41, push 42, pop -> r0 gets the first (FIFO) *)
        stdw r10 (-8) 41; map_fd r1 q.Bpf_map.id; mov_r r2 r10; add_i r2 (-8);
        mov_i r3 0; call (h "bpf_map_push_elem");
        stdw r10 (-8) 42; map_fd r1 q.Bpf_map.id; mov_r r2 r10; add_i r2 (-8);
        mov_i r3 0; call (h "bpf_map_push_elem");
        map_fd r1 q.Bpf_map.id; mov_r r2 r10; add_i r2 (-16);
        call (h "bpf_map_pop_elem");
        ldxdw r0 r10 (-16); exit_ ]
  in
  match Pipeline.load_ebpf world prog with
  | Error e -> Alcotest.failf "rejected: %s" (Format.asprintf "%a" Pipeline.pp_error e)
  | Ok loaded -> (
    match (Invoke.run world loaded).Invoke.outcome with
    | Invoke.Finished 41L -> ()
    | o -> Alcotest.failf "expected 41 (FIFO), got %s" (Format.asprintf "%a" Invoke.pp_outcome o))

let test_timer_fires () =
  let world = World.create_populated () in
  let m = World.register_map world counter_def in
  (* the program arms a timer whose callback bumps map[0] *)
  let prog =
    Ebpf.Program.of_items_exn ~name:"timer" ~prog_type:Ebpf.Program.Kprobe
      [ mov_i r1 1000; mov_label r2 "cb"; mov_i r3 0; mov_i r4 0;
        call (h "bpf_timer_start"); mov_i r0 0; exit_;
        label "cb";
        stdw r10 (-8) 0; map_fd r1 m.Bpf_map.id; mov_r r2 r10; add_i r2 (-8);
        call (h "bpf_map_lookup_elem"); jeq_i r0 0 "out";
        ldxdw r6 r0 0; add_i r6 1; stxdw r0 0 r6;
        label "out"; mov_i r0 0; exit_ ]
  in
  match Pipeline.load_ebpf world prog with
  | Error e -> Alcotest.failf "rejected: %s" (Format.asprintf "%a" Pipeline.pp_error e)
  | Ok loaded ->
    ignore (Invoke.run world loaded);
    ignore (Invoke.run world loaded);
    let addr =
      Option.get (Bpf_map.lookup m ~key:(Bytes.make 4 '\000'))
    in
    let v =
      Kernel_sim.Kmem.load world.World.kernel.Kernel.mem ~size:8 ~addr ~context:"t"
    in
    Alcotest.(check int64) "callback ran per invocation" 2L v

let test_timer_cancel () =
  let world = World.create_populated () in
  let m = World.register_map world counter_def in
  let prog =
    Ebpf.Program.of_items_exn ~name:"timer_cancel" ~prog_type:Ebpf.Program.Kprobe
      [ mov_i r1 1000; mov_label r2 "cb"; mov_i r3 0; mov_i r4 0;
        call (h "bpf_timer_start");
        mov_label r1 "cb"; call (h "bpf_timer_cancel");
        exit_; (* r0 = number cancelled = 1 *)
        label "cb";
        stdw r10 (-8) 0; map_fd r1 m.Bpf_map.id; mov_r r2 r10; add_i r2 (-8);
        call (h "bpf_map_lookup_elem"); jeq_i r0 0 "out";
        ldxdw r6 r0 0; add_i r6 1; stxdw r0 0 r6;
        label "out"; mov_i r0 0; exit_ ]
  in
  match Pipeline.load_ebpf world prog with
  | Error e -> Alcotest.failf "rejected: %s" (Format.asprintf "%a" Pipeline.pp_error e)
  | Ok loaded ->
    (match (Invoke.run world loaded).Invoke.outcome with
    | Invoke.Finished 1L -> ()
    | o -> Alcotest.failf "expected 1 cancel, got %s" (Format.asprintf "%a" Invoke.pp_outcome o));
    let addr = Option.get (Bpf_map.lookup m ~key:(Bytes.make 4 '\000')) in
    let v =
      Kernel_sim.Kmem.load world.World.kernel.Kernel.mem ~size:8 ~addr ~context:"t"
    in
    Alcotest.(check int64) "cancelled callback never ran" 0L v

let test_tail_call_chain_wired () =
  let world = World.create_populated () in
  let prog_b =
    Ebpf.Program.of_items_exn ~name:"b" ~prog_type:Ebpf.Program.Kprobe
      [ mov_i r0 55; exit_ ]
  in
  let b_id =
    match Result.get_ok (Pipeline.load_ebpf world prog_b) with
    | Pipeline.Ebpf_prog { prog_id; _ } -> prog_id
    | _ -> 0
  in
  World.set_tail_call world ~index:0 ~prog_id:b_id;
  let prog_a =
    Ebpf.Program.of_items_exn ~name:"a" ~prog_type:Ebpf.Program.Kprobe
      [ mov_r r1 r1; mov_i r2 0; mov_i r3 0; call (h "bpf_tail_call");
        mov_i r0 1; exit_ ]
  in
  let a = Result.get_ok (Pipeline.load_ebpf world prog_a) in
  match (Invoke.run world a).Invoke.outcome with
  | Invoke.Finished 55L -> ()
  | o -> Alcotest.failf "expected 55 via tail call, got %s"
           (Format.asprintf "%a" Invoke.pp_outcome o)

let test_tail_call_limit () =
  (* a self tail-calling program stops after MAX_TAIL_CALL_CNT hops *)
  let world = World.create_populated () in
  let prog =
    Ebpf.Program.of_items_exn ~name:"selfcall" ~prog_type:Ebpf.Program.Kprobe
      [ mov_r r1 r1; mov_i r2 0; mov_i r3 0; call (h "bpf_tail_call");
        mov_i r0 7; exit_ ]
  in
  let loaded = Result.get_ok (Pipeline.load_ebpf world prog) in
  let self_id =
    match loaded with Pipeline.Ebpf_prog { prog_id; _ } -> prog_id | _ -> 0
  in
  World.set_tail_call world ~index:0 ~prog_id:self_id;
  match (Invoke.run world loaded).Invoke.outcome with
  | Invoke.Finished 0L -> () (* the chain was cut by the limit *)
  | o -> Alcotest.failf "expected limit cutoff (0), got %s"
           (Format.asprintf "%a" Invoke.pp_outcome o)

(* The §2.2 nested-bpf_loop hang demo, run with the fix active, must be
   stopped by the watchdog — and the telemetry subsystem must have seen it:
   a nonzero guard.watchdog_trips counter plus activity in several other
   namespaces, proving the instrumentation is wired through the whole path. *)
let test_telemetry_sees_watchdog_trip () =
  let module Registry = Telemetry.Registry in
  Registry.reset ();
  let demo =
    match Framework.Exploits.find "hbug:nested-bpf-loop-hang" with
    | Some d -> d
    | None -> Alcotest.fail "demo hbug:nested-bpf-loop-hang not registered"
  in
  let summary = demo.Framework.Exploits.run ~vulnerable:false in
  Alcotest.(check bool) "kernel survives the fixed run" false
    summary.Framework.Exploits.kernel_dead;
  let trips = Telemetry.Counter.value (Registry.counter "guard.watchdog_trips") in
  Alcotest.(check bool) "guard.watchdog_trips is nonzero" true (trips > 0);
  let snap = Registry.snapshot () in
  let namespaces =
    List.filter_map
      (fun (name, v) ->
        if v = 0 then None
        else match String.index_opt name '.' with
          | Some i -> Some (String.sub name 0 i)
          | None -> Some name)
      snap.Registry.counters
    |> List.sort_uniq String.compare
  in
  Alcotest.(check bool)
    (Printf.sprintf "counters active in >= 4 namespaces (got %d: %s)"
       (List.length namespaces) (String.concat ", " namespaces))
    true
    (List.length namespaces >= 4)

let suite =
  [
    Alcotest.test_case "tail call chain (wired)" `Quick test_tail_call_chain_wired;
    Alcotest.test_case "tail call limit" `Quick test_tail_call_limit;
    Alcotest.test_case "timer fires after invocation" `Quick test_timer_fires;
    Alcotest.test_case "timer cancel" `Quick test_timer_cancel;
    Alcotest.test_case "queue program end to end" `Quick test_queue_program_end_to_end;
    Alcotest.test_case "paths agree on the counter" `Quick test_paths_agree;
    Alcotest.test_case "healthy after many runs" `Quick test_both_paths_leave_healthy_kernels;
    Alcotest.test_case "dead kernel stays dead" `Quick test_dead_kernel_stays_dead;
    Alcotest.test_case "gate difference A vs B" `Quick test_verification_vs_signature_gate_difference;
    Alcotest.test_case "jit and interp agree" `Quick test_jit_and_interp_paths_same_result;
    Alcotest.test_case "trace pipeline" `Quick test_trace_pipeline;
    Alcotest.test_case "telemetry sees watchdog trip" `Quick test_telemetry_sees_watchdog_trip;
  ]
