(* Runtime tests: interpreter semantics, guards, JIT equivalence (including
   a qcheck differential test interp-vs-JIT on verifier-accepted programs),
   and the safe-termination cleanup machinery. *)

open Untenable
open Ebpf.Asm
module Interp = Runtime.Interp
module Jit = Runtime.Jit
module Guard = Runtime.Guard
module Program = Ebpf.Program
module Kernel = Kernel_sim.Kernel
module Kmem = Kernel_sim.Kmem
module World = Framework.World

let h = Helpers.Registry.id_of_name

let fresh () =
  let world = World.create_populated () in
  let hctx = World.new_hctx world in
  let ctx =
    Kmem.alloc world.World.kernel.Kernel.mem ~size:64 ~kind:"ctx" ~name:"tctx" ()
  in
  (world, hctx, ctx.Kmem.base)

let run_items ?fuel ?wall_ns ?ns_per_insn items =
  let _, hctx, ctx_addr = fresh () in
  let prog = Program.of_items_exn ~name:"t" ~prog_type:Program.Kprobe items in
  Interp.run ?fuel ?wall_ns ?ns_per_insn ~hctx ~prog ~ctx_addr ()

let expect_ret expected items =
  match run_items items with
  | Interp.Ret v -> Alcotest.(check int64) "return value" expected v
  | other -> Alcotest.failf "expected Ret, got %s" (Format.asprintf "%a" Interp.pp_outcome other)

(* ---------------- ALU semantics ---------------- *)

let test_alu_basic () =
  expect_ret 11L [ mov_i r0 5; add_i r0 6; exit_ ];
  expect_ret 30L [ mov_i r0 5; mul_i r0 6; exit_ ];
  expect_ret 2L [ mov_i r0 17; mod_i r0 5; exit_ ];
  expect_ret 3L [ mov_i r0 12; div_i r0 4; exit_ ];
  expect_ret (-5L) [ mov_i r0 5; neg r0; exit_ ]

let test_div_by_zero_yields_zero () =
  (* the JITed guard semantics: x / 0 = 0, x % 0 = x *)
  expect_ret 0L [ mov_i r0 7; mov_i r1 0; div_r r0 r1; exit_ ];
  expect_ret 7L [ mov_i r0 7; mov_i r1 0; mod_r r0 r1; exit_ ]

let test_unsigned_div () =
  (* -1 as unsigned is huge: dividing by 2 gives 2^63-1 *)
  expect_ret 0x7fff_ffff_ffff_ffffL [ mov_i r0 (-1); mov_i r1 2; div_r r0 r1; exit_ ]

let test_alu32_zext () =
  (* 32-bit add wraps and zero-extends *)
  expect_ret 0L
    [ lddw r0 0xffff_ffffL; insn (Ebpf.Insn.Alu { op = Ebpf.Insn.Add;
        width = Ebpf.Insn.W32; dst = 0; src = Ebpf.Insn.Imm 1 }); exit_ ]

let test_arsh () =
  expect_ret (-2L) [ mov_i r0 (-8); arsh_i r0 2; exit_ ];
  (* logical shift of a negative value clears the sign *)
  expect_ret 0x3fff_ffff_ffff_fffeL [ mov_i r0 (-8); rsh_i r0 2; exit_ ]

let test_jump_signed_vs_unsigned () =
  (* -1 unsigned-greater-than 5, but not signed-greater-than *)
  expect_ret 1L
    [ mov_i r2 (-1); mov_i r0 0; jgt_i r2 5 "t"; ja "end"; label "t"; mov_i r0 1;
      label "end"; exit_ ];
  expect_ret 0L
    [ mov_i r2 (-1); mov_i r0 0; jsgt_i r2 5 "t"; ja "end"; label "t"; mov_i r0 1;
      label "end"; exit_ ]

let test_jset () =
  expect_ret 1L
    [ mov_i r2 0b1010; mov_i r0 0; jset_i r2 0b0010 "t"; ja "end"; label "t";
      mov_i r0 1; label "end"; exit_ ]

let test_stack_roundtrip () =
  expect_ret 0xbeefL
    [ lddw r3 0xbeefL; stxdw r10 (-16) r3; ldxdw r0 r10 (-16); exit_ ]

let test_byte_granular_stack () =
  expect_ret 0x42L
    [ mov_i r3 0x42; stxb r10 (-1) r3; ldxb r0 r10 (-1); exit_ ]

let test_loop_countdown () =
  expect_ret 10L
    [ mov_i r0 0; mov_i r6 10; label "l"; add_i r0 1; sub_i r6 1; jne_i r6 0 "l";
      exit_ ]

let test_atomic_add () =
  expect_ret 15L
    [ stdw r10 (-8) 10; mov_i r3 5; atomic_add r10 (-8) r3; ldxdw r0 r10 (-8); exit_ ]

let test_atomic_fetch_add () =
  (* src receives the old value *)
  expect_ret 10L
    [ stdw r10 (-8) 10; mov_i r3 5; atomic_add ~fetch:true r10 (-8) r3;
      mov_r r0 r3; exit_ ]

let test_atomic_xchg () =
  expect_ret 10L
    [ stdw r10 (-8) 10; mov_i r3 77; atomic_xchg r10 (-8) r3; mov_r r0 r3; exit_ ]

let test_atomic_cmpxchg_hit () =
  (* r0 matches memory: src stored, r0 = old *)
  expect_ret 99L
    [ stdw r10 (-8) 10; mov_i r0 10; mov_i r3 99; atomic_cmpxchg r10 (-8) r3;
      ldxdw r0 r10 (-8); exit_ ]

let test_atomic_cmpxchg_miss () =
  (* r0 mismatches: memory unchanged, r0 = old *)
  expect_ret 10L
    [ stdw r10 (-8) 10; mov_i r0 11; mov_i r3 99; atomic_cmpxchg r10 (-8) r3;
      ldxdw r0 r10 (-8); exit_ ]

let test_atomic_bitwise () =
  expect_ret 0b1110L
    [ stdw r10 (-8) 0b1100; mov_i r3 0b0110; atomic_or r10 (-8) r3;
      ldxdw r0 r10 (-8); exit_ ]

let test_bpf2bpf_call () =
  (* max3(a,b,c) via two subprogram calls *)
  expect_ret 9L
    [ mov_i r1 7; mov_i r2 9; call_sub "max2"; mov_r r6 r0;
      mov_r r1 r6; mov_i r2 3; call_sub "max2"; exit_;
      label "max2";
      jge_r r1 r2 "a_wins"; mov_r r0 r2; exit_;
      label "a_wins"; mov_r r0 r1; exit_ ]

let test_bpf2bpf_callee_saved () =
  (* r6..r9 survive the call even if the callee uses them *)
  expect_ret 5L
    [ mov_i r6 5; mov_i r1 0; call_sub "clobber"; mov_r r0 r6; exit_;
      label "clobber"; mov_i r6 999; mov_i r0 0; exit_ ]

let test_bpf2bpf_recursion_guarded () =
  let _, hctx, ctx_addr = fresh () in
  let prog =
    Program.of_items_exn ~name:"rec" ~prog_type:Program.Kprobe
      [ mov_i r1 0; call_sub "self"; exit_;
        label "self"; mov_i r1 0; call_sub "self"; exit_ ]
  in
  match Interp.run ~hctx ~prog ~ctx_addr () with
  | Interp.Terminated { Guard.reason = Guard.Stack_violation; _ } -> ()
  | other -> Alcotest.failf "expected stack guard, got %s"
               (Format.asprintf "%a" Interp.pp_outcome other)

(* ---------------- guards ---------------- *)

let test_fuel_guard () =
  match
    run_items ~fuel:100L
      [ mov_i r0 0; label "l"; add_i r0 1; ja "l" ]
  with
  | Interp.Terminated { Guard.reason = Guard.Fuel_exhausted; _ } -> ()
  | other -> Alcotest.failf "expected fuel termination, got %s"
               (Format.asprintf "%a" Interp.pp_outcome other)

(* Regression: fuel is checked before executing, so [fuel:N] runs exactly N
   instructions.  An off-by-one previously terminated a single-insn program
   under [fuel:1]. *)
let test_fuel_exact_budget () =
  (match run_items ~fuel:1L [ exit_ ] with
   | Interp.Ret _ -> ()
   | other -> Alcotest.failf "fuel:1 should run [exit_], got %s"
                (Format.asprintf "%a" Interp.pp_outcome other));
  (match run_items ~fuel:3L [ mov_i r0 7; mov_i r0 9; exit_ ] with
   | Interp.Ret v -> Alcotest.(check int64) "ran to completion" 9L v
   | other -> Alcotest.failf "fuel:3 should suffice for 3 insns, got %s"
                (Format.asprintf "%a" Interp.pp_outcome other));
  (match run_items ~fuel:2L [ mov_i r0 7; mov_i r0 9; exit_ ] with
   | Interp.Terminated { Guard.reason = Guard.Fuel_exhausted; _ } -> ()
   | other -> Alcotest.failf "fuel:2 on 3 insns should trip, got %s"
                (Format.asprintf "%a" Interp.pp_outcome other));
  (match run_items ~fuel:0L [ exit_ ] with
   | Interp.Terminated { Guard.reason = Guard.Fuel_exhausted; _ } -> ()
   | other -> Alcotest.failf "fuel:0 should trip immediately, got %s"
                (Format.asprintf "%a" Interp.pp_outcome other))

let test_fuel_retires_exactly () =
  let _, hctx, ctx_addr = fresh () in
  let prog = Program.of_items_exn ~name:"t" ~prog_type:Program.Kprobe
      [ mov_i r0 0; label "l"; add_i r0 1; ja "l" ] in
  let outcome, retired = Interp.run_counted ~fuel:3L ~hctx ~prog ~ctx_addr () in
  (match outcome with
   | Interp.Terminated { Guard.reason = Guard.Fuel_exhausted; _ } -> ()
   | other -> Alcotest.failf "expected fuel termination, got %s"
                (Format.asprintf "%a" Interp.pp_outcome other));
  Alcotest.(check int64) "exactly 3 insns retired" 3L retired

let test_watchdog_guard () =
  match
    run_items ~wall_ns:5000L ~ns_per_insn:10L
      [ mov_i r0 0; label "l"; add_i r0 1; ja "l" ]
  with
  | Interp.Terminated { Guard.reason = Guard.Watchdog_timeout; _ } -> ()
  | other -> Alcotest.failf "expected watchdog, got %s"
               (Format.asprintf "%a" Interp.pp_outcome other)

let test_oops_surfaces () =
  match run_items [ mov_i r2 0; ldxdw r0 r2 0; exit_ ] with
  | Interp.Oopsed r ->
    Alcotest.(check string) "null deref" "NULL pointer dereference"
      (Kernel_sim.Oops.kind_to_string r.Kernel_sim.Oops.kind)
  | other -> Alcotest.failf "expected oops, got %s"
               (Format.asprintf "%a" Interp.pp_outcome other)

let test_rcu_wrapped () =
  let world, hctx, ctx_addr = fresh () in
  let prog = Program.of_items_exn ~name:"t" ~prog_type:Program.Kprobe
      [ mov_i r0 0; exit_ ] in
  ignore (Interp.run ~hctx ~prog ~ctx_addr ());
  Alcotest.(check bool) "rcu released after run" false
    (Kernel_sim.Rcu.in_critical_section world.World.kernel.Kernel.rcu)

let test_termination_cleans_resources () =
  (* acquire a sock ref, then spin forever; the fuel guard must terminate
     AND release the reference via the recorded destructor *)
  let world, hctx, ctx_addr = fresh () in
  Kernel.snapshot_refs world.World.kernel;
  let prog =
    Program.of_items_exn ~name:"t" ~prog_type:Program.Kprobe
      [ mov_i r1 8080; call (h "bpf_sk_lookup_tcp"); label "l"; ja "l" ]
  in
  (match Interp.run ~fuel:500L ~hctx ~prog ~ctx_addr () with
  | Interp.Terminated t ->
    Alcotest.(check int) "one resource cleaned" 1 t.Guard.cleaned_resources
  | other -> Alcotest.failf "expected termination, got %s"
               (Format.asprintf "%a" Interp.pp_outcome other));
  let health = Kernel.health world.World.kernel in
  Alcotest.(check int) "no leaked refs after cleanup" 0
    (List.length health.Kernel.leaked_refs);
  Alcotest.(check bool) "rcu not stuck" false
    (Kernel_sim.Rcu.in_critical_section world.World.kernel.Kernel.rcu)

let test_callback_depth_guard () =
  let _, hctx, ctx_addr = fresh () in
  let prog =
    Program.of_items_exn ~name:"t" ~prog_type:Program.Kprobe
      [ mov_i r1 1; mov_label r2 "cb"; mov_i r3 0; mov_i r4 0; call (h "bpf_loop");
        mov_i r0 0; exit_;
        label "cb"; mov_i r1 1; mov_label r2 "cb"; mov_i r3 0; mov_i r4 0;
        call (h "bpf_loop"); mov_i r0 0; exit_ ]
  in
  match Interp.run ~hctx ~prog ~ctx_addr () with
  | Interp.Terminated { Guard.reason = Guard.Stack_violation; _ } -> ()
  | other -> Alcotest.failf "expected stack guard, got %s"
               (Format.asprintf "%a" Interp.pp_outcome other)

let test_insn_counting () =
  let _, hctx, ctx_addr = fresh () in
  let prog = Program.of_items_exn ~name:"t" ~prog_type:Program.Kprobe
      [ mov_i r0 1; add_i r0 2; exit_ ] in
  let outcome, retired = Interp.run_counted ~hctx ~prog ~ctx_addr () in
  (match outcome with Interp.Ret _ -> () | _ -> Alcotest.fail "ret expected");
  Alcotest.(check int64) "3 insns retired" 3L retired

(* ---------------- JIT ---------------- *)

let run_jit ?bug items =
  let _, hctx, ctx_addr = fresh () in
  let prog = Program.of_items_exn ~name:"t" ~prog_type:Program.Kprobe items in
  let compiled = Jit.compile ?bug_branch_off_by_one:bug hctx prog in
  Jit.run hctx compiled ~ctx_addr

let test_bpf2bpf_jit_parity () =
  let items =
    [ mov_i r1 20; mov_i r2 22; call_sub "add"; exit_;
      label "add"; mov_r r0 r1; add_r r0 r2; exit_ ]
  in
  match (run_items items, run_jit items) with
  | Interp.Ret a, Interp.Ret b ->
    Alcotest.(check int64) "both 42" 42L a;
    Alcotest.(check int64) "parity" a b
  | _ -> Alcotest.fail "both should return"

(* A subprogram frame runs under the caller's fuel on both engines.  The
   callee's loop is finite (500,000 rounds), so an engine that drops the
   guard returns instead of hanging the suite. *)
let test_bpf2bpf_jit_fuel () =
  let items =
    [ call_sub "spin"; exit_;
      label "spin"; mov_i r0 0; label "l"; add_i r0 1; jne_i r0 500_000 "l"; exit_ ]
  in
  let trip name run =
    let world, hctx, ctx_addr = fresh () in
    let clock = world.World.kernel.Kernel.clock in
    let t0 = Kernel_sim.Vclock.now clock in
    let prog = Program.of_items_exn ~name:"t" ~prog_type:Program.Kprobe items in
    match run hctx prog ctx_addr with
    | Interp.Terminated { Guard.reason = Guard.Fuel_exhausted; at_ns; _ }, retired ->
      Alcotest.(check int64) (name ^ ": retired") 10_000L retired;
      Alcotest.(check int64) (name ^ ": simulated ns at the trip") 10_000L
        (Int64.sub at_ns t0)
    | other, retired ->
      Alcotest.failf "%s: expected a fuel trip, got %s with %Ld retired" name
        (Format.asprintf "%a" Interp.pp_outcome other) retired
  in
  trip "interp" (fun hctx prog ctx_addr ->
      Interp.run_counted ~fuel:10_000L ~hctx ~prog ~ctx_addr ());
  trip "jit" (fun hctx prog ctx_addr ->
      Jit.run_counted ~fuel:10_000L hctx (Jit.compile hctx prog) ~ctx_addr)

(* A helper callback in a JIT frame behaves the same whether or not a
   subprogram frame ran one before it: the frame's callback hook does not
   outlive the frame. *)
let test_bpf2bpf_jit_frame_hook () =
  let loop = [ mov_i r1 3; mov_label r2 "cb"; mov_i r3 0; mov_i r4 0; call (h "bpf_loop") ] in
  let cb = [ label "cb"; mov_i r0 0; exit_ ] in
  let alone = run_jit (loop @ [ exit_ ] @ cb) in
  let after_frame =
    run_jit
      ([ call_sub "f" ] @ loop
      @ [ exit_; label "f"; mov_i r1 1; mov_label r2 "cb"; mov_i r3 0; mov_i r4 0;
          call (h "bpf_loop"); mov_i r0 0; exit_ ]
      @ cb)
  in
  match (alone, after_frame) with
  | Interp.Ret a, Interp.Ret b -> Alcotest.(check int64) "same bpf_loop result" a b
  | _ -> Alcotest.fail "both should return"

(* A faulting JIT instruction names itself in the oops context as
   [bpf_jit+<pc>]: one case per arm that can fault (load, store, store from
   a register, atomic, unknown helper). *)
let test_jit_oops_context () =
  let oops_of items =
    match run_jit items with
    | Interp.Oopsed r ->
      (Kernel_sim.Oops.kind_to_string r.Kernel_sim.Oops.kind, r.Kernel_sim.Oops.context)
    | other -> Alcotest.failf "expected oops, got %s"
                 (Format.asprintf "%a" Interp.pp_outcome other)
  in
  let check name (kind, context) items =
    let k, c = oops_of items in
    Alcotest.(check string) (name ^ " kind") kind k;
    Alcotest.(check string) (name ^ " context") context c
  in
  let null = "NULL pointer dereference" in
  check "ldx" (null, "bpf_jit+1") [ mov_i r2 0; ldxdw r0 r2 0; exit_ ];
  check "st" (null, "bpf_jit+2") [ mov_i r0 0; mov_i r2 0; stdw r2 8 1; exit_ ];
  check "stx" (null, "bpf_jit+3")
    [ mov_i r0 0; mov_i r2 0; mov_i r3 7; stxdw r2 0 r3; exit_ ];
  check "atomic" (null, "bpf_jit+2") [ mov_i r2 0; mov_i r3 1; atomic_add r2 0 r3; exit_ ];
  check "helper" ("BUG: unknown helper 9999", "bpf_jit+1") [ mov_i r0 0; call 9999; exit_ ]

let test_jit_matches_interp_basic () =
  let items = [ mov_i r0 5; mul_i r0 7; add_i r0 (-3); exit_ ] in
  match (run_items items, run_jit items) with
  | Interp.Ret a, Interp.Ret b -> Alcotest.(check int64) "same result" a b
  | _ -> Alcotest.fail "both should return"

let test_jit_branch_bug_changes_flow () =
  let items =
    [ mov_i r0 0; mov_i r6 5; label "l"; add_i r0 1; sub_i r6 1; jne_i r6 0 "l";
      exit_ ]
  in
  (match run_jit items with
  | Interp.Ret v -> Alcotest.(check int64) "correct JIT: 5" 5L v
  | _ -> Alcotest.fail "correct JIT should return");
  let _, hctx, ctx_addr = fresh () in
  let prog = Program.of_items_exn ~name:"t" ~prog_type:Program.Kprobe items in
  let compiled = Jit.compile ~bug_branch_off_by_one:true hctx prog in
  match Jit.run ~fuel:10_000L hctx compiled ~ctx_addr with
  | Interp.Terminated { Guard.reason = Guard.Fuel_exhausted; _ } -> ()
  | other -> Alcotest.failf "buggy JIT should hang, got %s"
               (Format.asprintf "%a" Interp.pp_outcome other)

(* differential property: on verifier-accepted helper-free programs the JIT
   and the interpreter agree *)
let differential_property =
  QCheck.Test.make ~count:200 ~name:"JIT and interpreter agree on accepted programs"
    (QCheck.make
       ~print:(fun items ->
         match Ebpf.Asm.assemble items with
         | Ok insns -> Ebpf.Disasm.to_string insns
         | Error e -> e)
       QCheck.Gen.(
         let reg = int_range 0 5 in
         let small = int_range (-100) 100 in
         let chunk =
           oneof
             [ map2 (fun d v -> mov_i d v) reg small;
               map2 (fun d s -> mov_r d s) reg reg;
               map2 (fun d v -> add_i d v) reg small;
               map2 (fun d v -> sub_i d v) reg small;
               map2 (fun d s -> add_r d s) reg reg;
               map2 (fun d v -> mul_i d v) reg small;
               map2 (fun d v -> xor_i d v) reg small;
               map2 (fun d v -> and_i d v) reg small;
               map2 (fun d s -> sub_r d s) reg reg;
               map2 (fun d v -> div_i d v) reg (int_range 1 50);
               map2 (fun d sh -> rsh_i d sh) reg (int_bound 63);
               map2 (fun d sh -> lsh_i d sh) reg (int_bound 63) ]
         in
         let* init = return (List.init 6 (fun i -> mov_i i (i * 3))) in
         let* body = list_size (int_range 1 30) chunk in
         let* guard_v = small in
         return
           (init @ body
           @ [ jeq_i r1 guard_v "end"; xor_i r0 1; label "end"; mov_r r0 r0; exit_ ])))
    (fun items ->
      match Ebpf.Asm.assemble items with
      | Error _ -> QCheck.assume_fail ()
      | Ok insns -> (
        let prog = Program.make ~name:"d" ~prog_type:Program.Kprobe insns in
        match Bpf_verifier.Verifier.verify ~map_def:(fun _ -> None) prog with
        | Error _ -> QCheck.assume_fail ()
        | Ok _ -> (
          let _, hctx1, ctx1 = fresh () in
          let _, hctx2, ctx2 = fresh () in
          let i = Interp.run ~hctx:hctx1 ~prog ~ctx_addr:ctx1 () in
          let j = Jit.run hctx2 (Jit.compile hctx2 prog) ~ctx_addr:ctx2 in
          match (i, j) with
          | Interp.Ret a, Interp.Ret b -> Int64.equal a b
          | _ -> false)))

let suite =
  [
    Alcotest.test_case "ALU basics" `Quick test_alu_basic;
    Alcotest.test_case "div by zero semantics" `Quick test_div_by_zero_yields_zero;
    Alcotest.test_case "unsigned division" `Quick test_unsigned_div;
    Alcotest.test_case "ALU32 zero-extension" `Quick test_alu32_zext;
    Alcotest.test_case "arithmetic shifts" `Quick test_arsh;
    Alcotest.test_case "signed vs unsigned jumps" `Quick test_jump_signed_vs_unsigned;
    Alcotest.test_case "jset" `Quick test_jset;
    Alcotest.test_case "stack roundtrip" `Quick test_stack_roundtrip;
    Alcotest.test_case "byte-granular stack" `Quick test_byte_granular_stack;
    Alcotest.test_case "loop countdown" `Quick test_loop_countdown;
    Alcotest.test_case "atomic add" `Quick test_atomic_add;
    Alcotest.test_case "atomic fetch add" `Quick test_atomic_fetch_add;
    Alcotest.test_case "atomic xchg" `Quick test_atomic_xchg;
    Alcotest.test_case "atomic cmpxchg hit" `Quick test_atomic_cmpxchg_hit;
    Alcotest.test_case "atomic cmpxchg miss" `Quick test_atomic_cmpxchg_miss;
    Alcotest.test_case "atomic bitwise" `Quick test_atomic_bitwise;
    Alcotest.test_case "bpf2bpf call" `Quick test_bpf2bpf_call;
    Alcotest.test_case "bpf2bpf callee-saved" `Quick test_bpf2bpf_callee_saved;
    Alcotest.test_case "bpf2bpf recursion guarded" `Quick test_bpf2bpf_recursion_guarded;
    Alcotest.test_case "bpf2bpf jit parity" `Quick test_bpf2bpf_jit_parity;
    Alcotest.test_case "fuel guard" `Quick test_fuel_guard;
    Alcotest.test_case "fuel exact budget" `Quick test_fuel_exact_budget;
    Alcotest.test_case "fuel retires exactly" `Quick test_fuel_retires_exactly;
    Alcotest.test_case "watchdog guard" `Quick test_watchdog_guard;
    Alcotest.test_case "oops surfaces" `Quick test_oops_surfaces;
    Alcotest.test_case "rcu wrapped" `Quick test_rcu_wrapped;
    Alcotest.test_case "termination cleans resources" `Quick test_termination_cleans_resources;
    Alcotest.test_case "callback depth guard" `Quick test_callback_depth_guard;
    Alcotest.test_case "insn counting" `Quick test_insn_counting;
    Alcotest.test_case "jit matches interp" `Quick test_jit_matches_interp_basic;
    Alcotest.test_case "jit branch bug" `Quick test_jit_branch_bug_changes_flow;
    QCheck_alcotest.to_alcotest differential_property;
    Alcotest.test_case "jit oops context" `Quick test_jit_oops_context;
    Alcotest.test_case "bpf2bpf jit fuel" `Quick test_bpf2bpf_jit_fuel;
    Alcotest.test_case "bpf2bpf jit frame hook" `Quick test_bpf2bpf_jit_frame_hook;
  ]
