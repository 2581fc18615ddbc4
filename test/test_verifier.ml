(* Verifier tests: acceptance/rejection behaviour for every class of check
   the engine implements, the injectable-bug flips, and the qcheck
   soundness property (accepted loop-free programs never fault at runtime). *)

open Untenable
open Ebpf.Asm
module V = Bpf_verifier.Verifier
module Vbug = Bpf_verifier.Vbug
module Program = Ebpf.Program
module Bpf_map = Maps.Bpf_map
module Kernel = Kernel_sim.Kernel

let test_map_def : Bpf_map.def =
  { Bpf_map.name = "t"; kind = Bpf_map.Array; key_size = 4; value_size = 16;
    max_entries = 4; lock_off = None }

let lock_map_def : Bpf_map.def =
  { test_map_def with Bpf_map.name = "l"; lock_off = Some 0 }

let map_def = function 1 -> Some test_map_def | 2 -> Some lock_map_def | _ -> None

let verify ?config ?(prog_type = Program.Kprobe) items =
  let prog = Program.of_items_exn ~name:"t" ~prog_type items in
  V.verify ?config ~map_def prog

let config_with ?(f = fun (_ : Vbug.t) -> ()) () =
  let c = V.default_config () in
  f c.V.bugs;
  c

let expect_ok ?config ?prog_type items =
  match verify ?config ?prog_type items with
  | Ok _ -> ()
  | Error r -> Alcotest.failf "unexpected rejection: %s" (Format.asprintf "%a" V.pp_reject r)

let expect_reject ?config ?prog_type ~substring items =
  match verify ?config ?prog_type items with
  | Ok _ -> Alcotest.failf "expected rejection mentioning %S" substring
  | Error r ->
    let msg = Format.asprintf "%a" V.pp_reject r in
    let contains s sub =
      let n = String.length s and m = String.length sub in
      let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
      go 0
    in
    if not (contains msg substring) then
      Alcotest.failf "rejection %S does not mention %S" msg substring

let h = Helpers.Registry.id_of_name

(* ---------------- basics ---------------- *)

let test_minimal () = expect_ok [ mov_i r0 0; exit_ ]

let test_empty () = expect_reject ~substring:"empty" []

let test_fallthrough () = expect_reject ~substring:"fall-through" [ mov_i r0 0 ]

let test_jump_oob () =
  expect_reject ~substring:"out of range" [ insn (Ebpf.Insn.Ja 5); exit_ ]

let test_fp_readonly () =
  expect_reject ~substring:"read only" [ mov_i r10 0; mov_i r0 0; exit_ ]

let test_uninit_read () =
  expect_reject ~substring:"!read_ok" [ mov_r r0 r3; exit_ ]

let test_uninit_exit () =
  expect_reject ~substring:"R0" [ insn Ebpf.Insn.Exit ]

let test_too_many_insns () =
  let config = { (V.default_config ()) with V.max_insns = 4 } in
  expect_reject ~config ~substring:"too many instructions"
    [ mov_i r0 0; mov_i r1 0; mov_i r2 0; mov_i r3 0; exit_ ]

let test_unknown_helper () =
  expect_reject ~substring:"invalid func" [ call 9999; mov_i r0 0; exit_ ]

let test_unknown_map_fd () =
  expect_reject ~substring:"valid map" [ map_fd r1 77; mov_i r0 0; exit_ ]

(* ---------------- stack ---------------- *)

let test_stack_write_read () =
  expect_ok [ stdw r10 (-8) 7; ldxdw r0 r10 (-8); exit_ ]

let test_stack_uninit_read () =
  expect_reject ~substring:"invalid read from stack" [ ldxdw r0 r10 (-8); exit_ ]

let test_stack_oob_write () =
  expect_reject ~substring:"invalid stack access" [ stdw r10 (-520) 0; mov_i r0 0; exit_ ]

let test_stack_positive_offset () =
  expect_reject ~substring:"invalid stack access" [ stdw r10 8 0; mov_i r0 0; exit_ ]

let test_stack_variable_offset () =
  expect_reject ~substring:"variable stack access"
    [ ldxdw r2 r1 0; mov_r r3 r10; add_r r3 r2; stdw r3 (-8) 0 [@warning "-26"];
      mov_i r0 0; exit_ ]

let test_spill_fill_pointer () =
  (* spilling a pointer and filling it back preserves its type *)
  expect_ok
    [ stxdw r10 (-8) r1; ldxdw r2 r10 (-8); ldxdw r0 r2 0; mov_i r0 0; exit_ ]

let test_partial_pointer_spill () =
  expect_reject ~substring:"partial spill"
    [ stxw r10 (-8) r1; mov_i r0 0; exit_ ]

let test_zero_slot_is_const () =
  (* reading a zeroed slot yields constant 0, usable as a null check *)
  expect_ok [ stdw r10 (-8) 0; ldxdw r0 r10 (-8); exit_ ]

(* ---------------- ctx ---------------- *)

let test_ctx_read () = expect_ok [ ldxdw r0 r1 0; exit_ ]

let test_ctx_bad_offset () =
  expect_reject ~substring:"invalid bpf_context access" [ ldxdw r0 r1 63; exit_ ]

let test_ctx_bad_size () =
  (* kprobe ctx has 8-byte fields; a 4-byte read at offset 0 mismatches *)
  expect_reject ~substring:"invalid bpf_context access" [ ldxw r0 r1 0; exit_ ]

let test_ctx_readonly_write () =
  expect_reject ~prog_type:Program.Socket_filter ~substring:"read-only ctx field"
    [ stw r1 0 0; mov_i r0 0; exit_ ]

let test_ctx_writable_field () =
  (* skb mark at offset 8 is writable *)
  expect_ok ~prog_type:Program.Socket_filter [ stw r1 8 0; mov_i r0 0; exit_ ]

let test_ctx_variable_offset () =
  expect_reject ~substring:"variable"
    [ ldxdw r2 r1 0; add_r r1 r2; ldxdw r0 r1 0; exit_ ]

(* ---------------- scalars / pointers ---------------- *)

let test_scalar_mem_access () =
  expect_reject ~substring:"invalid mem access"
    [ mov_i r2 42; ldxdw r0 r2 0; exit_ ]

let test_pointer_leak_return () =
  expect_reject ~substring:"leaks addr" [ mov_r r0 r10; exit_ ]

let test_pointer_leak_allowed_privileged () =
  let config = { (V.default_config ()) with V.allow_ptr_leaks = true } in
  expect_ok ~config [ mov_r r0 r10; exit_ ]

let test_pointer_partial_copy () =
  expect_reject ~substring:"partial copy"
    [ mov32_r r2 r10; mov_i r0 0; exit_ ]

let test_pointer_arith_prohibited_ops () =
  expect_reject ~substring:"prohibited"
    [ mul_i r1 3; mov_i r0 0; exit_ ]

let test_fp_minus_fp_is_scalar () =
  expect_ok [ mov_r r2 r10; sub_r r2 r10; mov_r r0 r2; exit_ ]

let test_pointer_comparison_prohibited () =
  expect_reject ~substring:"pointer comparison"
    [ mov_i r2 5; jeq_r r1 r2 "out"; label "out"; mov_i r0 0; exit_ ]

(* ---------------- map access & bounds ---------------- *)

let map_lookup_prelude =
  [ stdw r10 (-8) 0; map_fd r1 1; mov_r r2 r10; add_i r2 (-8);
    call (h "bpf_map_lookup_elem") ]

let test_map_lookup_null_check_required () =
  expect_reject ~substring:"possibly NULL"
    (map_lookup_prelude @ [ ldxdw r0 r0 0; exit_ ])

let test_map_lookup_after_null_check () =
  expect_ok
    (map_lookup_prelude
    @ [ jeq_i r0 0 "out"; ldxdw r3 r0 0 [@warning "-26"]; label "out"; mov_i r0 0;
        exit_ ])

let test_map_value_oob_const () =
  expect_reject ~substring:"invalid access"
    (map_lookup_prelude
    @ [ jeq_i r0 0 "out"; ldxdw r3 r0 9 [@warning "-26"]; label "out"; mov_i r0 0;
        exit_ ])

let test_map_value_bounded_variable () =
  (* a scalar bounded to [0,8] may index into the 16-byte value *)
  expect_ok
    (map_lookup_prelude
    @ [ jeq_i r0 0 "out"; stdw r10 (-16) 0; ldxdw r4 r10 (-16); and_i r4 8;
        add_r r0 r4; ldxb r3 r0 0 [@warning "-26"]; label "out"; mov_i r0 0;
        exit_ ])

let test_map_value_unbounded_variable () =
  expect_reject ~substring:"outside of the map_value"
    ([ ldxdw r6 r1 0 ] @ map_lookup_prelude
    @ [ jeq_i r0 0 "out"; add_r r0 r6; ldxb r3 r0 0 [@warning "-26"];
        label "out"; mov_i r0 0; exit_ ])

let test_bounds_refinement_via_branch () =
  (* jlt refines the unsigned upper bound, making the access safe *)
  expect_ok
    ([ ldxdw r6 r1 0 ] @ map_lookup_prelude
    @ [ jeq_i r0 0 "out"; jge_i r6 16 "out"; add_r r0 r6;
        ldxb r3 r0 0 [@warning "-26"]; label "out"; mov_i r0 0; exit_ ])

let test_branch_statically_decided () =
  (* the dead branch dereferences NULL; the verifier must prove it dead *)
  expect_ok
    [ mov_i r2 5; jeq_i r2 5 "good"; mov_i r3 0; ldxdw r0 r3 0; exit_;
      label "good"; mov_i r0 0; exit_ ]

(* ---------------- helper arg checking ---------------- *)

let test_helper_uninit_arg () =
  expect_reject ~substring:"!read_ok"
    [ map_fd r1 1; call (h "bpf_map_lookup_elem"); mov_i r0 0; exit_ ]

let test_helper_wrong_map_arg () =
  expect_reject ~substring:"expected map pointer"
    [ mov_i r1 1; mov_r r2 r10; add_i r2 (-8); stdw r10 (-8) 0;
      call (h "bpf_map_lookup_elem"); mov_i r0 0; exit_ ]

let test_helper_key_uninit_stack () =
  expect_reject ~substring:"uninitialized stack"
    [ map_fd r1 1; mov_r r2 r10; add_i r2 (-8); call (h "bpf_map_lookup_elem");
      mov_i r0 0; exit_ ]

let test_helper_unbounded_size () =
  expect_reject ~substring:"unbounded memory size"
    [ ldxdw r2 r1 0; (* unknown size *)
      mov_r r1 r10; add_i r1 (-16); mov_i r3 0;
      call (h "bpf_probe_read_kernel"); mov_i r0 0; exit_ ]

let test_helper_version_gate () =
  let config = { (V.default_config ()) with V.version = Kerndata.Kver.V4_3 } in
  expect_reject ~config ~substring:"not available"
    [ mov_i r1 0; mov_label r2 "cb"; mov_i r3 0; mov_i r4 0; call (h "bpf_loop");
      mov_i r0 0; exit_; label "cb"; mov_i r0 0; exit_ ]

let test_callback_pc_must_be_const () =
  expect_reject ~substring:"callback target"
    [ ldxdw r2 r1 0; mov_i r1 4; mov_i r3 0; mov_i r4 0; call (h "bpf_loop");
      mov_i r0 0; exit_ ]

let test_callback_body_verified () =
  (* the callback dereferences NULL: rejected even though the main body is
     fine *)
  expect_reject ~substring:"invalid mem access"
    [ mov_i r1 4; mov_label r2 "cb"; mov_i r3 0; mov_i r4 0; call (h "bpf_loop");
      mov_i r0 0; exit_;
      label "cb"; mov_i r3 0; ldxdw r0 r3 0; exit_ ]

let test_loop_accepted () =
  expect_ok
    [ mov_i r1 8; mov_label r2 "cb"; mov_i r3 0; mov_i r4 0; call (h "bpf_loop");
      mov_i r0 0; exit_; label "cb"; mov_i r0 0; exit_ ]

(* ---------------- atomics ---------------- *)

let test_atomic_on_stack_ok () =
  expect_ok
    [ stdw r10 (-8) 0; mov_i r3 1; atomic_add r10 (-8) r3; ldxdw r0 r10 (-8); exit_ ]

let test_atomic_on_scalar_rejected () =
  expect_reject ~substring:"invalid mem access"
    [ mov_i r2 4096; mov_i r3 1; atomic_add r2 0 r3; mov_i r0 0; exit_ ]

let test_atomic_uninit_slot_rejected () =
  expect_reject ~substring:"invalid read from stack"
    [ mov_i r3 1; atomic_add r10 (-8) r3; mov_i r0 0; exit_ ]

let test_atomic_pointer_src_rejected () =
  expect_reject ~substring:"leaks addr"
    [ stdw r10 (-8) 0; atomic_xchg r10 (-8) r1; mov_i r0 0; exit_ ]

let test_atomic_cmpxchg_needs_r0 () =
  expect_reject ~substring:"R0 !read_ok"
    [ stdw r10 (-8) 0; mov_i r3 1; atomic_cmpxchg r10 (-8) r3; mov_i r0 0; exit_ ]

let test_atomic_fetch_on_spilled_pointer_rejected () =
  (* the a82fe085 class: fetching from a slot holding a pointer would leak *)
  expect_reject ~substring:"leaking pointer through atomic"
    [ stxdw r10 (-8) r1; mov_i r3 0; atomic_add ~fetch:true r10 (-8) r3;
      mov_i r0 0; exit_ ]

let test_atomic_ptr_leak_bug_flips () =
  let items =
    [ stxdw r10 (-8) r1; mov_i r3 0; atomic_add ~fetch:true r10 (-8) r3;
      mov_i r0 0; exit_ ]
  in
  (match verify items with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted without the bug");
  let config = config_with ~f:(fun b -> b.Vbug.spill_ptr_leak <- true) () in
  match verify ~config items with
  | Ok _ -> ()
  | Error r -> Alcotest.failf "still rejected: %s" (Format.asprintf "%a" V.pp_reject r)

(* ---------------- references & locks ---------------- *)

let test_ref_leak_rejected () =
  expect_reject ~substring:"unreleased reference"
    [ mov_i r1 8080; call (h "bpf_sk_lookup_tcp"); mov_i r0 0; exit_ ]

let test_ref_release_ok () =
  expect_ok
    [ mov_i r1 8080; call (h "bpf_sk_lookup_tcp"); jeq_i r0 0 "out"; mov_r r1 r0;
      call (h "bpf_sk_release"); label "out"; mov_i r0 0; exit_ ]

let test_release_unreferenced () =
  expect_reject ~substring:"expected referenced sock"
    [ mov_i r1 0; call (h "bpf_sk_release"); mov_i r0 0; exit_ ]

let test_use_after_release () =
  expect_reject ~substring:"!read_ok"
    [ mov_i r1 8080; call (h "bpf_sk_lookup_tcp"); jeq_i r0 0 "out"; mov_r r6 r0;
      mov_r r1 r6; call (h "bpf_sk_release"); ldxw r0 r6 0; exit_;
      label "out"; mov_i r0 0; exit_ ]

let lock_prelude =
  [ stdw r10 (-8) 0; map_fd r1 2; mov_r r2 r10; add_i r2 (-8);
    call (h "bpf_map_lookup_elem"); jeq_i r0 0 "out"; mov_r r6 r0 ]

let test_lock_unlock_ok () =
  expect_ok
    (lock_prelude
    @ [ mov_r r1 r6; call (h "bpf_spin_lock"); mov_r r1 r6;
        call (h "bpf_spin_unlock"); label "out"; mov_i r0 0; exit_ ])

let test_exit_holding_lock () =
  expect_reject ~substring:"held at exit"
    (lock_prelude
    @ [ mov_r r1 r6; call (h "bpf_spin_lock"); label "out"; mov_i r0 0; exit_ ])

let test_helper_while_locked () =
  expect_reject ~substring:"not allowed while holding"
    (lock_prelude
    @ [ mov_r r1 r6; call (h "bpf_spin_lock"); call (h "bpf_ktime_get_ns");
        mov_r r1 r6; call (h "bpf_spin_unlock"); label "out"; mov_i r0 0; exit_ ])

let test_unlock_without_lock () =
  expect_reject ~substring:"without holding"
    (lock_prelude
    @ [ mov_r r1 r6; call (h "bpf_spin_unlock"); label "out"; mov_i r0 0; exit_ ])

let test_direct_lock_field_access () =
  expect_reject ~substring:"bpf_spin_lock"
    (lock_prelude @ [ ldxw r3 r6 0 [@warning "-26"]; label "out"; mov_i r0 0; exit_ ])

let test_lock_wrong_offset () =
  expect_reject ~substring:"bpf_spin_lock"
    (lock_prelude
    @ [ mov_r r1 r6; add_i r1 8; call (h "bpf_spin_lock"); mov_r r1 r6;
        call (h "bpf_spin_unlock"); label "out"; mov_i r0 0; exit_ ])

let test_ringbuf_must_complete () =
  expect_reject ~substring:"unreleased reference"
    [ map_fd r1 1; mov_i r2 8; mov_i r3 0; call (h "bpf_ringbuf_reserve");
      mov_i r0 0; exit_ ]

let test_ringbuf_submit_ok () =
  expect_ok
    [ map_fd r1 1; mov_i r2 8; mov_i r3 0; call (h "bpf_ringbuf_reserve");
      jeq_i r0 0 "out"; mov_r r1 r0; mov_i r2 0; call (h "bpf_ringbuf_submit");
      label "out"; mov_i r0 0; exit_ ]

let test_ringbuf_null_branch_clears_ref () =
  (* on the NULL branch the reservation never existed: no obligation *)
  expect_ok
    [ map_fd r1 1; mov_i r2 8; mov_i r3 0; call (h "bpf_ringbuf_reserve");
      jne_i r0 0 "have"; mov_i r0 0; exit_;
      label "have"; mov_r r1 r0; mov_i r2 0; call (h "bpf_ringbuf_discard");
      mov_i r0 0; exit_ ]

let test_for_each_callback_map_value_bounds () =
  (* the for_each callback receives the map value in r2: in-bounds access
     verifies, out-of-bounds is rejected inside the callback *)
  let body off =
    [ map_fd r1 1; mov_label r2 "cb"; mov_i r3 0; mov_i r4 0;
      call (h "bpf_for_each_map_elem"); mov_i r0 0; exit_;
      label "cb"; ldxdw r0 r2 off; mov_i r0 0; exit_ ]
  in
  expect_ok (body 0);
  expect_reject ~substring:"invalid access" (body 9)

(* ---------------- bpf-to-bpf calls ---------------- *)

let test_subprog_verified () =
  expect_ok
    [ mov_i r1 1; call_sub "sub"; exit_;
      label "sub"; mov_r r0 r1; add_i r0 1; exit_ ]

let test_subprog_body_checked () =
  (* the subprogram dereferences NULL: rejected *)
  expect_reject ~substring:"invalid mem access"
    [ mov_i r1 1; call_sub "sub"; exit_;
      label "sub"; mov_i r3 0; ldxdw r0 r3 0; exit_ ]

let test_subprog_stack_ptr_arg_rejected () =
  expect_reject ~substring:"cross a bpf2bpf call"
    [ stdw r10 (-8) 0; mov_r r1 r10; add_i r1 (-8); call_sub "sub"; exit_;
      label "sub"; mov_i r0 0; exit_ ]

let test_subprog_ctx_arg_ok () =
  expect_ok
    [ call_sub "sub"; exit_;
      label "sub"; ldxdw r0 r1 0; exit_ ]

let test_subprog_call_while_locked () =
  expect_reject ~substring:"while holding a lock"
    (lock_prelude
    @ [ mov_r r1 r6; call (h "bpf_spin_lock"); mov_i r1 0; call_sub "sub";
        label "out"; mov_i r0 0; exit_;
        label "sub"; mov_i r0 0; exit_ ])

(* ---------------- loops & budget ---------------- *)

let test_legacy_backedge_reject () =
  let config = { (V.default_config ()) with V.allow_loops = false } in
  expect_reject ~config ~substring:"back-edge"
    [ mov_i r0 4; label "l"; sub_i r0 1; jne_i r0 0 "l"; exit_ ]

let test_bounded_loop_accepted () =
  expect_ok [ mov_i r0 4; label "l"; sub_i r0 1; jne_i r0 0 "l"; exit_ ]

let test_budget_rejection () =
  let config = { (V.default_config ()) with V.insn_budget = 100 } in
  expect_reject ~config ~substring:"too large"
    [ mov_i r0 200; label "l"; sub_i r0 1; jne_i r0 0 "l"; exit_ ]

let test_pruning_reduces_work () =
  (* jset branches with identical join states: pruning keeps the walk linear *)
  let items =
    [ mov_i r0 0; ldxdw r6 r1 0 ]
    @ List.concat_map
        (fun i ->
          [ jset_i r6 1 (Printf.sprintf "t%d" i); add_i r0 0;
            label (Printf.sprintf "t%d" i) ])
        (List.init 12 (fun i -> i))
    @ [ mov_i r0 0; exit_ ]
  in
  let pruned =
    match verify items with Ok s -> s.V.insns_processed | Error _ -> -1
  in
  let config = { (V.default_config ()) with V.prune = false } in
  let unpruned =
    match verify ~config items with Ok s -> s.V.insns_processed | Error _ -> -1
  in
  Alcotest.(check bool)
    (Printf.sprintf "pruned %d << unpruned %d" pruned unpruned)
    true
    (pruned > 0 && unpruned > 100 * pruned)

let test_false_positive_mod_vs_mask () =
  (* §2.1's false-positive phenomenon: % escapes the abstract domain, & does
     not — both programs are memory-safe *)
  let body op =
    [ ldxdw r6 r1 0 ] @ op
    @ map_lookup_prelude
    @ [ jeq_i r0 0 "out"; add_r r0 r6; ldxb r3 r0 0 [@warning "-26"];
        label "out"; mov_i r0 0; exit_ ]
  in
  expect_reject ~substring:"outside of the map_value"
    (body [ mov_i r2 16; mod_r r6 r2 ]);
  expect_ok (body [ and_i r6 15 ])

let test_spectre_v1_gate () =
  (* the §4 transient-execution defence: the same bounded variable-offset
     access is fine for privileged programs and refused for unprivileged *)
  let items =
    [ ldxdw r6 r1 0 ] @ map_lookup_prelude
    @ [ jeq_i r0 0 "out"; jge_i r6 16 "out"; add_r r0 r6;
        ldxb r3 r0 0 [@warning "-26"]; label "out"; mov_i r0 0; exit_ ]
  in
  expect_ok items;
  let config = { (V.default_config ()) with V.reject_speculative_oob = true } in
  expect_reject ~config ~substring:"speculation" items

let test_verbose_log () =
  let config = { (V.default_config ()) with V.verbose = true } in
  match verify ~config [ mov_i r0 0; mov_i r1 5; exit_ ] with
  | Ok s ->
    Alcotest.(check bool) "log mentions insns" true (String.length s.V.log > 10);
    let contains sub =
      let n = String.length s.V.log and m = String.length sub in
      let rec go i = i + m <= n && (String.sub s.V.log i m = sub || go (i + 1)) in
      go 0
    in
    Alcotest.(check bool) "log shows the mov" true (contains "mov r1, 5")
  | Error _ -> Alcotest.fail "rejected"

let test_quiet_by_default () =
  match verify [ mov_i r0 0; exit_ ] with
  | Ok s -> Alcotest.(check string) "no log collected" "" s.V.log
  | Error _ -> Alcotest.fail "rejected"

(* ---------------- injectable bugs flip decisions ---------------- *)

let flip_test name ~vuln_field items =
  ( name,
    fun () ->
      (match verify items with
      | Ok _ -> Alcotest.failf "%s: accepted without the bug" name
      | Error _ -> ());
      let config = config_with ~f:vuln_field () in
      match verify ~config items with
      | Ok _ -> ()
      | Error r ->
        Alcotest.failf "%s: still rejected with the bug: %s" name
          (Format.asprintf "%a" V.pp_reject r) )

let bug_flips =
  [
    flip_test "ptr_arith_or_null flips"
      ~vuln_field:(fun b -> b.Vbug.ptr_arith_or_null <- true)
      (map_lookup_prelude
      @ [ add_i r0 8; jeq_i r0 0 "out"; stw r0 0 65; label "out"; mov_i r0 0; exit_ ]);
    flip_test "bounds_32bit_broken flips"
      ~vuln_field:(fun b -> b.Vbug.bounds_32bit_broken <- true)
      ([ ldxdw r6 r1 0; and_i r6 15;
         insn (Ebpf.Insn.Alu { op = Ebpf.Insn.Sub; width = Ebpf.Insn.W32; dst = r6;
                               src = Ebpf.Insn.Imm 20 }) ]
      @ map_lookup_prelude
      @ [ jeq_i r0 0 "out"; add_r r0 r6; st Ebpf.Insn.B r0 0 65; label "out";
          mov_i r0 0; exit_ ]);
    flip_test "spill_ptr_leak flips"
      ~vuln_field:(fun b -> b.Vbug.spill_ptr_leak <- true)
      (map_lookup_prelude
      @ [ jeq_i r0 0 "out"; stxdw r10 (-16) r0; ldxdw r7 r10 (-16); stxdw r0 0 r7;
          label "out"; mov_i r0 0; exit_ ]);
    flip_test "task_or_null_as_task flips"
      ~vuln_field:(fun b -> b.Vbug.task_or_null_as_task <- true)
      [ map_fd r1 1; mov_i r2 0; mov_i r3 0; mov_i r4 0;
        call (h "bpf_task_storage_get"); mov_i r0 0; exit_ ];
  ]

let test_verifier_crash_bug () =
  let config = config_with ~f:(fun b -> b.Vbug.loop_inline_uaf <- true) () in
  match
    verify ~config
      [ mov_i r1 4; mov_label r2 "cb"; mov_i r3 0; mov_i r4 0; call (h "bpf_loop");
        mov_i r0 0; exit_; label "cb"; mov_i r0 0; exit_ ]
  with
  | exception Vbug.Verifier_crash _ -> ()
  | _ -> Alcotest.fail "expected the verifier itself to crash"

(* ---------------- soundness property ---------------- *)

(* Random loop-free programs over ALU ops, stack accesses, ctx reads and
   branches.  Whatever the verifier accepts must run without any kernel
   oops (helpers excluded: this is the core-language soundness claim). *)
let gen_safe_insn =
  QCheck.Gen.(
    let reg = int_range 0 9 in
    let small = int_range (-64) 64 in
    oneof
      [ (let* dst = reg and* v = small in
         return [ mov_i dst v ]);
        (let* dst = reg and* src = reg in
         return [ mov_r dst src ]);
        (let* op = oneofl [ `Add; `Sub; `Mul; `And; `Or; `Xor ] and* dst = reg
         and* v = small in
         return
           [ (match op with
             | `Add -> add_i dst v
             | `Sub -> sub_i dst v
             | `Mul -> mul_i dst v
             | `And -> and_i dst v
             | `Or -> or_i dst v
             | `Xor -> xor_i dst v) ]);
        (let* dst = reg and* src = reg in
         return [ add_r dst src ]);
        (let* dst = reg and* sh = int_bound 63 in
         return [ lsh_i dst sh ]);
        (let* dst = reg and* sh = int_bound 63 in
         return [ rsh_i dst sh ]);
        (let* dst = reg and* v = int_range 1 64 in
         return [ div_i dst v ]);
        (let* slot = int_range 1 8 and* src = reg in
         return [ stxdw r10 (-8 * slot) src ]);
        (let* slot = int_range 1 8 and* dst = reg in
         return [ stdw r10 (-8 * slot) 7; ldxdw dst r10 (-8 * slot) ]);
        (let* dst = reg and* fld = int_bound 7 in
         return [ ldxdw dst r1 (fld * 8) ]);
        return [ call (h "bpf_ktime_get_ns") ];
        return [ call (h "bpf_get_current_pid_tgid") ] ])

(* composite idioms: the interesting multi-instruction patterns a real
   program uses — map lookup + null check + bounded access, an
   acquire/release pair, an atomic RMW on an initialized slot *)
let gen_idiom =
  QCheck.Gen.(
    let* tag = int_bound 2 in
    let* uniq = int_bound 100000 in
    let l suffix = Printf.sprintf "idiom%d_%d" uniq suffix in
    match tag with
    | 0 ->
      let* off_mask = oneofl [ 7; 8; 15 ] in
      return
        [ stdw r10 (-8) 0; map_fd r1 1; mov_r r2 r10; add_i r2 (-8);
          call (h "bpf_map_lookup_elem"); jeq_i r0 0 (l 0);
          stdw r10 (-16) 3; ldxdw r4 r10 (-16); and_i r4 off_mask; add_r r0 r4;
          ldxb r3 r0 0 [@warning "-26"]; label (l 0); mov_i r0 0 ]
    | 1 ->
      return
        [ mov_i r1 8080; call (h "bpf_sk_lookup_tcp"); jeq_i r0 0 (l 0);
          mov_r r1 r0; call (h "bpf_sk_release"); label (l 0); mov_i r0 0 ]
    | _ ->
      let* v = int_range 0 50 in
      return [ stdw r10 (-24) v; mov_i r3 v; atomic_add r10 (-24) r3 ])

(* forward-only branches keep the program loop-free *)
let gen_program =
  QCheck.Gen.(
    let* chunks =
      list_size (int_range 2 25)
        (oneof [ gen_safe_insn; gen_safe_insn; gen_safe_insn; gen_idiom ])
    in
    let* branch_points = list_size (int_range 0 4) (pair (int_bound 63) (int_bound 100)) in
    let n = List.length chunks in
    let items =
      List.concat
        (List.mapi
           (fun i chunk ->
             let jumps =
               List.filter_map
                 (fun (v, at) ->
                   if at mod n = i then
                     Some (jeq_i r0 v (Printf.sprintf "end"))
                   else None)
                 branch_points
             in
             chunk @ jumps)
           chunks)
    in
    return (items @ [ label "end"; mov_i r0 0; exit_ ]))

let arb_program =
  QCheck.make
    ~print:(fun items ->
      match Ebpf.Asm.assemble items with
      | Ok insns -> Ebpf.Disasm.to_string insns
      | Error e -> e)
    gen_program

let soundness_property =
  QCheck.Test.make ~count:300
    ~name:"verifier soundness: accepted loop-free programs never oops" arb_program
    (fun items ->
      match Ebpf.Asm.assemble items with
      | Error _ -> QCheck.assume_fail ()
      | Ok insns -> (
        let prog = Program.make ~name:"rand" ~prog_type:Program.Kprobe insns in
        match V.verify ~map_def prog with
        | Error _ -> QCheck.assume_fail () (* only accepted programs matter *)
        | Ok _ -> (
          let world = Framework.World.create_populated () in
          (* the property's map_def assigns id 1 to the test map: mirror it *)
          let m = Framework.World.register_map world test_map_def in
          assert (m.Bpf_map.id = 1);
          let loaded =
            match Framework.Pipeline.load_ebpf world prog with
            | Ok l -> l
            | Error _ -> Alcotest.fail "re-verification failed"
          in
          let opts =
            { Framework.Invoke.default_opts with
              Framework.Invoke.fuel = Some 1_000_000L
            }
          in
          let report = Framework.Invoke.run ~opts world loaded in
          match report.Framework.Invoke.outcome with
          | Framework.Invoke.Crashed _ -> false
          | Framework.Invoke.Finished _ | Framework.Invoke.Stopped _
          | Framework.Invoke.Exhausted _ ->
            true)))

let suite =
  [
    Alcotest.test_case "minimal program" `Quick test_minimal;
    Alcotest.test_case "empty program" `Quick test_empty;
    Alcotest.test_case "fall-through" `Quick test_fallthrough;
    Alcotest.test_case "jump out of range" `Quick test_jump_oob;
    Alcotest.test_case "fp read-only" `Quick test_fp_readonly;
    Alcotest.test_case "uninit register read" `Quick test_uninit_read;
    Alcotest.test_case "uninit r0 at exit" `Quick test_uninit_exit;
    Alcotest.test_case "program size cap" `Quick test_too_many_insns;
    Alcotest.test_case "unknown helper" `Quick test_unknown_helper;
    Alcotest.test_case "unknown map fd" `Quick test_unknown_map_fd;
    Alcotest.test_case "stack write/read" `Quick test_stack_write_read;
    Alcotest.test_case "stack uninit read" `Quick test_stack_uninit_read;
    Alcotest.test_case "stack oob write" `Quick test_stack_oob_write;
    Alcotest.test_case "stack positive offset" `Quick test_stack_positive_offset;
    Alcotest.test_case "stack variable offset" `Quick test_stack_variable_offset;
    Alcotest.test_case "pointer spill/fill" `Quick test_spill_fill_pointer;
    Alcotest.test_case "partial pointer spill" `Quick test_partial_pointer_spill;
    Alcotest.test_case "zero slot" `Quick test_zero_slot_is_const;
    Alcotest.test_case "ctx read" `Quick test_ctx_read;
    Alcotest.test_case "ctx bad offset" `Quick test_ctx_bad_offset;
    Alcotest.test_case "ctx bad size" `Quick test_ctx_bad_size;
    Alcotest.test_case "ctx read-only write" `Quick test_ctx_readonly_write;
    Alcotest.test_case "ctx writable field" `Quick test_ctx_writable_field;
    Alcotest.test_case "ctx variable offset" `Quick test_ctx_variable_offset;
    Alcotest.test_case "scalar mem access" `Quick test_scalar_mem_access;
    Alcotest.test_case "pointer leak via return" `Quick test_pointer_leak_return;
    Alcotest.test_case "leak allowed when privileged" `Quick test_pointer_leak_allowed_privileged;
    Alcotest.test_case "pointer partial copy" `Quick test_pointer_partial_copy;
    Alcotest.test_case "pointer arith bad ops" `Quick test_pointer_arith_prohibited_ops;
    Alcotest.test_case "fp-fp subtraction" `Quick test_fp_minus_fp_is_scalar;
    Alcotest.test_case "pointer comparison" `Quick test_pointer_comparison_prohibited;
    Alcotest.test_case "map value needs null check" `Quick test_map_lookup_null_check_required;
    Alcotest.test_case "map value after null check" `Quick test_map_lookup_after_null_check;
    Alcotest.test_case "map value const oob" `Quick test_map_value_oob_const;
    Alcotest.test_case "map value bounded var" `Quick test_map_value_bounded_variable;
    Alcotest.test_case "map value unbounded var" `Quick test_map_value_unbounded_variable;
    Alcotest.test_case "bounds refinement" `Quick test_bounds_refinement_via_branch;
    Alcotest.test_case "static branch decision" `Quick test_branch_statically_decided;
    Alcotest.test_case "helper uninit arg" `Quick test_helper_uninit_arg;
    Alcotest.test_case "helper wrong map arg" `Quick test_helper_wrong_map_arg;
    Alcotest.test_case "helper key uninit stack" `Quick test_helper_key_uninit_stack;
    Alcotest.test_case "helper unbounded size" `Quick test_helper_unbounded_size;
    Alcotest.test_case "helper version gate" `Quick test_helper_version_gate;
    Alcotest.test_case "callback pc const" `Quick test_callback_pc_must_be_const;
    Alcotest.test_case "callback body verified" `Quick test_callback_body_verified;
    Alcotest.test_case "bpf_loop accepted" `Quick test_loop_accepted;
    Alcotest.test_case "atomic on stack" `Quick test_atomic_on_stack_ok;
    Alcotest.test_case "atomic on scalar" `Quick test_atomic_on_scalar_rejected;
    Alcotest.test_case "atomic uninit slot" `Quick test_atomic_uninit_slot_rejected;
    Alcotest.test_case "atomic pointer src" `Quick test_atomic_pointer_src_rejected;
    Alcotest.test_case "atomic cmpxchg needs r0" `Quick test_atomic_cmpxchg_needs_r0;
    Alcotest.test_case "atomic fetch on spilled ptr" `Quick test_atomic_fetch_on_spilled_pointer_rejected;
    Alcotest.test_case "atomic ptr leak bug flips" `Quick test_atomic_ptr_leak_bug_flips;
    Alcotest.test_case "ref leak rejected" `Quick test_ref_leak_rejected;
    Alcotest.test_case "ref release ok" `Quick test_ref_release_ok;
    Alcotest.test_case "release unreferenced" `Quick test_release_unreferenced;
    Alcotest.test_case "use after release" `Quick test_use_after_release;
    Alcotest.test_case "lock/unlock ok" `Quick test_lock_unlock_ok;
    Alcotest.test_case "exit holding lock" `Quick test_exit_holding_lock;
    Alcotest.test_case "helper while locked" `Quick test_helper_while_locked;
    Alcotest.test_case "unlock without lock" `Quick test_unlock_without_lock;
    Alcotest.test_case "direct lock field access" `Quick test_direct_lock_field_access;
    Alcotest.test_case "lock wrong offset" `Quick test_lock_wrong_offset;
    Alcotest.test_case "ringbuf must complete" `Quick test_ringbuf_must_complete;
    Alcotest.test_case "ringbuf submit ok" `Quick test_ringbuf_submit_ok;
    Alcotest.test_case "ringbuf null branch" `Quick test_ringbuf_null_branch_clears_ref;
    Alcotest.test_case "for_each callback bounds" `Quick test_for_each_callback_map_value_bounds;
    Alcotest.test_case "subprog verified" `Quick test_subprog_verified;
    Alcotest.test_case "subprog body checked" `Quick test_subprog_body_checked;
    Alcotest.test_case "subprog stack-ptr arg" `Quick test_subprog_stack_ptr_arg_rejected;
    Alcotest.test_case "subprog ctx arg" `Quick test_subprog_ctx_arg_ok;
    Alcotest.test_case "subprog while locked" `Quick test_subprog_call_while_locked;
    Alcotest.test_case "legacy back-edge reject" `Quick test_legacy_backedge_reject;
    Alcotest.test_case "bounded loop accepted" `Quick test_bounded_loop_accepted;
    Alcotest.test_case "budget rejection" `Quick test_budget_rejection;
    Alcotest.test_case "pruning reduces work" `Quick test_pruning_reduces_work;
    Alcotest.test_case "verifier crash bug" `Quick test_verifier_crash_bug;
    Alcotest.test_case "false positive: mod vs mask" `Quick test_false_positive_mod_vs_mask;
    Alcotest.test_case "spectre v1 gate" `Quick test_spectre_v1_gate;
    Alcotest.test_case "verbose log" `Quick test_verbose_log;
    Alcotest.test_case "quiet by default" `Quick test_quiet_by_default;
  ]
  @ List.map (fun (name, f) -> Alcotest.test_case name `Quick f) bug_flips
  @ [ QCheck_alcotest.to_alcotest soundness_property ]
