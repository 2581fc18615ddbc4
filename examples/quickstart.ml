(* Quickstart: the same tiny extension — "count invocations in a map and
   stamp the time of the last run" — loaded through both architectures.

   Path A: eBPF bytecode -> in-kernel verifier -> interpreter.
   Path B: rustlite source -> userspace toolchain (typecheck, ownership
           check, sign) -> signature validation -> evaluator.

   Run with: dune exec examples/quickstart.exe *)

open Untenable
module Pipeline = Framework.Pipeline
module Invoke = Framework.Invoke
module World = Framework.World
module Bpf_map = Maps.Bpf_map

let banner title = Printf.printf "\n==== %s ====\n" title

(* ------------------------- Path A: eBPF ------------------------- *)

let ebpf_counter ~map_id =
  let open Ebpf.Asm in
  let h = Helpers.Registry.id_of_name in
  Ebpf.Program.of_items_exn ~name:"counter" ~prog_type:Ebpf.Program.Kprobe
    [
      (* key 0 on the stack *)
      stdw r10 (-8) 0;
      map_fd r1 map_id;
      mov_r r2 r10;
      add_i r2 (-8);
      call (h "bpf_map_lookup_elem");
      jeq_i r0 0 "miss";
      (* value layout: [count:u64][last_ns:u64] *)
      ldxdw r6 r0 0;
      add_i r6 1;
      stxdw r0 0 r6;
      mov_r r7 r0;
      call (h "bpf_ktime_get_ns");
      stxdw r7 8 r0;
      mov_r r0 r6;
      exit_;
      label "miss";
      mov_i r0 (-1);
      exit_;
    ]

let run_ebpf () =
  banner "Path A: eBPF bytecode through the in-kernel verifier";
  let world = World.create_populated () in
  let m =
    World.register_map world
      { Bpf_map.name = "stats"; kind = Bpf_map.Array; key_size = 4; value_size = 16;
        max_entries = 1; lock_off = None }
  in
  let prog = ebpf_counter ~map_id:m.Bpf_map.id in
  Printf.printf "program (%d insns):\n%s" (Ebpf.Program.length prog)
    (Ebpf.Disasm.to_string prog.Ebpf.Program.insns);
  match Pipeline.load_ebpf world prog with
  | Error e -> Format.printf "load failed: %a@." Pipeline.pp_error e
  | Ok loaded ->
    (match loaded with
    | Pipeline.Ebpf_prog { vstats; _ } ->
      Printf.printf "verifier: accepted after processing %d instructions, %d states\n"
        vstats.Bpf_verifier.Verifier.insns_processed
        vstats.Bpf_verifier.Verifier.states_explored
    | Pipeline.Rustlite_ext _ -> ());
    for i = 1 to 3 do
      let report = Invoke.run world loaded in
      Format.printf "run %d -> %a (kernel %a)@." i Invoke.pp_outcome
        report.Invoke.outcome Kernel_sim.Kernel.pp_health report.Invoke.health
    done

(* ----------------------- Path B: rustlite ----------------------- *)

let rustlite_counter =
  let open Rustlite.Ast in
  {
    Rustlite.Toolchain.name = "counter_rl";
    maps =
      [ { Bpf_map.name = "stats"; kind = Bpf_map.Array; key_size = 4; value_size = 8;
          max_entries = 1; lock_off = None } ];
    body =
      Match_option
        { scrutinee = Call ("map_get", [ Lit_str "stats"; Lit_int 0L ]);
          bind = "count";
          some_branch =
            Seq
              [ Call ("map_set",
                      [ Lit_str "stats"; Lit_int 0L;
                        Binop (Add, Var "count", Lit_int 1L) ]);
                Call ("trace_i64", [ Lit_str "count is now "; Binop (Add, Var "count", Lit_int 1L) ]);
                Binop (Add, Var "count", Lit_int 1L) ];
          none_branch = Lit_int (-1L) };
  }

let run_rustlite () =
  banner "Path B: rustlite through the signing toolchain";
  let world = World.create_populated () in
  match Rustlite.Toolchain.compile rustlite_counter with
  | Error e -> Format.printf "toolchain rejected: %a@." Rustlite.Toolchain.pp_error e
  | Ok ext ->
    Printf.printf "toolchain: typechecked, ownership-checked, signed\n  digest %s\n"
      (String.sub ext.Rustlite.Toolchain.signature.Rustlite.Sign.digest_hex 0 16 ^ "...");
    (match Pipeline.load_rustlite world ext with
    | Error e -> Format.printf "load failed: %a@." Pipeline.pp_error e
    | Ok loaded ->
      Printf.printf "kernel: signature valid, loaded with NO in-kernel verification\n";
      for i = 1 to 3 do
        let report = Invoke.run world loaded in
        Format.printf "run %d -> %a (kernel %a)@." i Invoke.pp_outcome
          report.Invoke.outcome Kernel_sim.Kernel.pp_health report.Invoke.health;
        List.iter (Printf.printf "  trace: %s\n") report.Invoke.trace
      done)

let () =
  Printf.printf "untenable %s — %s\n" Untenable.version Untenable.paper;
  run_ebpf ();
  run_rustlite ()
