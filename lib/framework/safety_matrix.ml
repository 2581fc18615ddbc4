(* Table 2, executable: for every safety property the paper lists, run a
   witness program that tries to violate it under the proposed framework
   and record which mechanism (language safety / runtime protection)
   actually stopped it — plus the kernel's health afterwards. *)

module Kernel = Kernel_sim.Kernel
module Bpf_map = Maps.Bpf_map
module Guard = Runtime.Guard
module Program = Ebpf.Program
open Rustlite.Ast

type row = {
  property : string;
  mechanism : Kerndata.Safety_props.mechanism;
  witness : string;     (* what the violation attempt was *)
  observed : string;    (* what actually happened *)
  upheld : bool;        (* the kernel stayed healthy *)
}

let rl_source ~name ?(maps = []) body = { Rustlite.Toolchain.name; maps; body }

let run_rustlite ?fuel ?wall_ns world src =
  match Rustlite.Toolchain.compile src with
  | Error e -> `Toolchain_rejected (Format.asprintf "%a" Rustlite.Toolchain.pp_error e)
  | Ok ext -> (
    match Pipeline.load_rustlite world ext with
    | Error _ -> `Toolchain_rejected "bad signature"
    | Ok loaded ->
      let opts = { Invoke.default_opts with Invoke.fuel; wall_ns } in
      let report = Invoke.run ~opts world loaded in
      `Ran report)

let healthy world = Kernel.healthy (Kernel.health world.World.kernel)

(* 1. No arbitrary memory access: a dynamic out-of-bounds index panics
   (checked indexing); the panic terminates safely. *)
let witness_memory () =
  let world = World.create_populated () in
  let src =
    rl_source ~name:"oob_index"
      (Let { name = "a"; mut = false;
             value = Array_lit [ Lit_int 1L; Lit_int 2L; Lit_int 3L; Lit_int 4L ];
             body =
               Let { name = "i"; mut = false; value = Call ("skb_len", []);
                     (* attacker-controlled index, 0 here but unknown statically *)
                     body = Index (Var "a", Binop (Add, Var "i", Lit_int 7L)) } })
  in
  let observed =
    match run_rustlite world src with
    | `Toolchain_rejected msg -> "toolchain rejected: " ^ msg
    | `Ran r -> Format.asprintf "%a" Invoke.pp_outcome r.Invoke.outcome
  in
  { property = "No arbitrary memory access";
    mechanism = Kerndata.Safety_props.Language_safety;
    witness = "index a[i+7] into a 4-element array (checked indexing)";
    observed; upheld = healthy world }

(* 2. No arbitrary control-flow transfer: computed jumps are not
   representable; the nearest attempt (a huge computed shift used to fake a
   jump table) is just checked arithmetic. *)
let witness_control_flow () =
  let world = World.create_populated () in
  let src =
    rl_source ~name:"no_goto"
      (Let { name = "target"; mut = false; value = Lit_int 1234L;
             body = Binop (Shl, Lit_int 1L, Var "target") })
  in
  let observed =
    match run_rustlite world src with
    | `Toolchain_rejected msg -> "toolchain rejected: " ^ msg
    | `Ran r ->
      Format.asprintf "no jump primitive exists; closest attempt: %a"
        Invoke.pp_outcome r.Invoke.outcome
  in
  { property = "No arbitrary control-flow transfer";
    mechanism = Kerndata.Safety_props.Language_safety;
    witness = "computed control transfer (unrepresentable; structured flow only)";
    observed; upheld = healthy world }

(* 3. Type safety: the toolchain rejects ill-typed programs outright, and a
   post-signing AST mutation invalidates the signature at load time. *)
let witness_type_safety () =
  let world = World.create_populated () in
  let ill_typed =
    rl_source ~name:"ill_typed" (Binop (Add, Lit_int 1L, Lit_bool true))
  in
  let first =
    match Rustlite.Toolchain.compile ill_typed with
    | Error e -> Format.asprintf "toolchain: %a" Rustlite.Toolchain.pp_error e
    | Ok _ -> "toolchain ACCEPTED ill-typed program (!)"
  in
  (* tamper with a validly signed extension *)
  let good = rl_source ~name:"good" (Lit_int 7L) in
  let tampered =
    match Rustlite.Toolchain.compile good with
    | Error _ -> "could not build the tamper witness"
    | Ok ext -> (
      let evil =
        { ext with
          Rustlite.Toolchain.src =
            { ext.Rustlite.Toolchain.src with Rustlite.Toolchain.body = Panic "evil" } }
      in
      match Pipeline.load_rustlite world evil with
      | Error Pipeline.Bad_signature -> "tampered artifact: signature validation failed"
      | Error _ -> "tampered artifact: rejected"
      | Ok _ -> "tampered artifact LOADED (!)")
  in
  { property = "Type safety";
    mechanism = Kerndata.Safety_props.Language_safety;
    witness = "1 + true, and a post-signing AST mutation";
    observed = first ^ "; " ^ tampered;
    upheld =
      healthy world
      && String.length first > 0 && first.[0] = 't'
      && String.length tampered > 0 && tampered.[0] = 't' }

(* 4. Safe resource management: acquire a socket and a ringbuf reservation,
   then panic; the recorded destructors must release both. *)
let witness_resources () =
  let world = World.create_populated () in
  let rb_def =
    { Bpf_map.name = "events"; kind = Bpf_map.Ringbuf; key_size = 0; value_size = 0;
      max_entries = 4096; lock_off = None }
  in
  let src =
    rl_source ~name:"panic_with_resources" ~maps:[ rb_def ]
      (Match_option
         { scrutinee = Call ("sk_lookup", [ Lit_int 8080L ]);
           bind = "sk";
           some_branch =
             Match_option
               { scrutinee = Call ("ringbuf_reserve", [ Lit_str "events"; Lit_int 64L ]);
                 bind = "res";
                 some_branch =
                   Seq [ Call ("rb_write_i64", [ Borrow "res"; Lit_int 0L; Lit_int 42L ]);
                         Panic "injected failure with 2 resources held" ];
                 none_branch = Lit_unit };
           none_branch = Lit_unit })
  in
  let observed =
    match run_rustlite world src with
    | `Toolchain_rejected msg -> "toolchain rejected: " ^ msg
    | `Ran r ->
      let health = r.Invoke.health in
      Format.asprintf "%a; leaked refs=%d, outstanding resources=%d"
        Invoke.pp_outcome r.Invoke.outcome
        (List.length health.Kernel.leaked_refs)
        r.Invoke.resources_outstanding
  in
  { property = "Safe resource management";
    mechanism = Kerndata.Safety_props.Runtime_protection;
    witness = "panic while holding a socket reference and a ringbuf reservation";
    observed; upheld = healthy world }

(* 5. Termination: an infinite loop is cut down by the watchdog. *)
let witness_termination () =
  let world = World.create_populated () in
  let src =
    rl_source ~name:"spin_forever"
      (Let { name = "x"; mut = true; value = Lit_int 0L;
             body = While (Lit_bool true, Assign ("x", Binop (BXor, Var "x", Lit_int 1L))) })
  in
  let observed =
    match run_rustlite ~wall_ns:1_000_000L world src with
    | `Toolchain_rejected msg -> "toolchain rejected: " ^ msg
    | `Ran r -> Format.asprintf "%a" Invoke.pp_outcome r.Invoke.outcome
  in
  { property = "Termination";
    mechanism = Kerndata.Safety_props.Runtime_protection;
    witness = "while true {} under a 1 ms watchdog";
    observed; upheld = healthy world }

(* 6. Stack protection: runaway callback recursion (bpf_loop calling itself)
   is cut by the runtime's frame-depth guard with full cleanup. *)
let witness_stack () =
  let world = World.create_populated () in
  let open Ebpf.Asm in
  let open Ebpf.Insn in
  let hid = Helpers.Registry.id_of_name in
  let prog =
    Program.of_items_exn ~name:"deep_callbacks" ~prog_type:Program.Kprobe
      [
        mov_i r1 1;
        mov_label r2 "cb";
        mov_i r3 0;
        mov_i r4 0;
        call (hid "bpf_loop");
        mov_i r0 0;
        exit_;
        label "cb";
        mov_i r1 1;
        mov_label r2 "cb"; (* the callback re-enters itself *)
        mov_i r3 0;
        mov_i r4 0;
        call (hid "bpf_loop");
        mov_i r0 0;
        exit_;
      ]
  in
  let observed =
    match Pipeline.load_ebpf world prog with
    | Error e -> Format.asprintf "%a" Pipeline.pp_error e
    | Ok loaded ->
      let r = Invoke.run world loaded in
      Format.asprintf "%a" Invoke.pp_outcome r.Invoke.outcome
  in
  { property = "Stack protection";
    mechanism = Kerndata.Safety_props.Runtime_protection;
    witness = "self-recursive bpf_loop callback (unbounded frame growth)";
    observed; upheld = healthy world }

let rows () =
  [ witness_memory (); witness_control_flow (); witness_type_safety ();
    witness_resources (); witness_termination (); witness_stack () ]
