(* The full userspace toolchain pipeline, from concrete source text:
   parse -> typecheck -> ownership-check -> sign -> (kernel) validate ->
   run under the watchdog.  The programs below are written in rustlite's
   surface syntax; the third one is rejected by the ownership checker —
   at *compile* time, in userspace, exactly where §3 wants the analysis.

   Run with: dune exec examples/rustlite_source.exe *)

open Untenable
module Pipeline = Framework.Pipeline
module Invoke = Framework.Invoke
module World = Framework.World

let good_program =
  {|
    // count scheduler hits per task and log them
    if let Some(task) = task_current() {
      let pid = task_pid(&task);
      let hits = match map_get("hits", pid % 8) {
        Some(n) => n + 1,
        None => 1
      };
      map_set("hits", pid % 8, hits);
      trace_i64("task hit count: ", hits);
      hits
    } else { 0 }
  |}

let looping_program =
  {|
    // perfectly legal to WRITE an unbounded loop; the runtime owns termination
    let mut x = 0;
    while true {
      x = (x * 1103515245 + 12345) % 2147483648;
    }
  |}

let double_submit_program =
  {|
    if let Some(res) = ringbuf_reserve("events", 16) {
      rb_write_i64(&res, 0, ktime());
      rb_submit(res);
      rb_submit(res)   // use of moved value: caught by the toolchain
    } else { () }
  |}

let maps =
  [ { Maps.Bpf_map.name = "hits"; kind = Maps.Bpf_map.Array; key_size = 4;
      value_size = 8; max_entries = 8; lock_off = None };
    { Maps.Bpf_map.name = "events"; kind = Maps.Bpf_map.Ringbuf; key_size = 0;
      value_size = 0; max_entries = 4096; lock_off = None } ]

let compile_and_run ~name ?(wall_ms = 50) src =
  Printf.printf "\n=== %s ===\n%s\n" name src;
  match Rustlite.Parser.parse src with
  | Error e ->
    Printf.printf "parse error at %d:%d: %s\n" e.Rustlite.Parser.line
      e.Rustlite.Parser.col e.Rustlite.Parser.msg
  | Ok body -> (
    match Rustlite.Toolchain.compile { Rustlite.Toolchain.name = name; maps; body } with
    | Error e ->
      Format.printf "toolchain REJECTED (userspace, before any kernel involvement):@.  %a@."
        Rustlite.Toolchain.pp_error e
    | Ok ext -> (
      Printf.printf "toolchain: checked + signed\n";
      let world = World.create_populated () in
      match Pipeline.load_rustlite world ext with
      | Error e -> Format.printf "load failed: %a@." Pipeline.pp_error e
      | Ok loaded ->
        for i = 1 to 3 do
          let opts =
            { Invoke.default_opts with
              Invoke.wall_ns = Some (Int64.mul (Int64.of_int wall_ms) 1_000_000L)
            }
          in
          let r = Invoke.run ~opts world loaded in
          Format.printf "run %d -> %a@." i Invoke.pp_outcome r.Invoke.outcome;
          List.iter (Printf.printf "   trace: %s\n") r.Invoke.trace
        done;
        Format.printf "kernel: %a@."
          Kernel_sim.Kernel.pp_health
          (Kernel_sim.Kernel.health world.World.kernel)))

let () =
  Printf.printf "rustlite surface syntax -> toolchain -> signed load -> guarded run\n";
  compile_and_run ~name:"task_hit_counter" good_program;
  compile_and_run ~name:"spin_forever" looping_program;
  compile_and_run ~name:"double_submit" double_submit_program
