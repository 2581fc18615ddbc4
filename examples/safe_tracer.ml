(* A realistic rustlite extension: a little tracer that keeps a per-task
   event count in task storage and emits an event record to a ring buffer,
   exercising RAII resources, borrows, Option handling, strings, and the
   runtime guards — the §3 wish list the eBPF programming model cannot
   express without helper shims.

   Run with: dune exec examples/safe_tracer.exe *)

open Untenable
open Rustlite.Ast
module Pipeline = Framework.Pipeline
module Invoke = Framework.Invoke
module World = Framework.World
module Bpf_map = Maps.Bpf_map
module Ringbuf = Maps.Ringbuf

let tracer_maps =
  [ { Bpf_map.name = "per_task"; kind = Bpf_map.Hash; key_size = 4; value_size = 8;
      max_entries = 64; lock_off = None };
    { Bpf_map.name = "events"; kind = Bpf_map.Ringbuf; key_size = 0; value_size = 0;
      max_entries = 4096; lock_off = None } ]

(* fn trace() {
     if let Some(task) = task_current() {
       let n = task_storage_get("per_task", &task, CREATE).unwrap_or(0) + 1;
       task_storage_set("per_task", &task, n);
       if let Some(rec) = ringbuf_reserve("events", 24) {
         rb_write_i64(&rec, 0, pid_tgid());
         rb_write_i64(&rec, 8, n);
         rb_write_i64(&rec, 16, ktime());
         rb_submit(rec);            // move: a second submit cannot typecheck
       }
       trace("task traced: ", comm)
     }
   } *)
let tracer_body =
  Match_option
    { scrutinee = Call ("task_current", []);
      bind = "task";
      some_branch =
        Let
          { name = "n"; mut = false;
            value =
              Binop
                ( Add,
                  Match_option
                    { scrutinee =
                        Call ("task_storage_get",
                              [ Lit_str "per_task"; Borrow "task"; Lit_int 1L ]);
                      bind = "prev"; some_branch = Var "prev";
                      none_branch = Lit_int 0L },
                  Lit_int 1L );
            body =
              Seq
                [ Call ("task_storage_set",
                        [ Lit_str "per_task"; Borrow "task"; Var "n" ]);
                  Match_option
                    { scrutinee =
                        Call ("ringbuf_reserve", [ Lit_str "events"; Lit_int 24L ]);
                      bind = "rec";
                      some_branch =
                        Seq
                          [ Call ("rb_write_i64",
                                  [ Borrow "rec"; Lit_int 0L; Call ("pid_tgid", []) ]);
                            Call ("rb_write_i64",
                                  [ Borrow "rec"; Lit_int 8L; Var "n" ]);
                            Call ("rb_write_i64",
                                  [ Borrow "rec"; Lit_int 16L; Call ("ktime", []) ]);
                            Call ("rb_submit", [ Var "rec" ]) ];
                      none_branch = Lit_unit };
                  Call ("trace", [ Call ("task_comm", [ Borrow "task" ]) ]);
                  Var "n" ] };
      none_branch = Lit_int 0L }

let () =
  let world = World.create_populated () in
  let src = { Rustlite.Toolchain.name = "safe_tracer"; maps = tracer_maps; body = tracer_body } in
  match Rustlite.Toolchain.compile src with
  | Error e -> Format.printf "toolchain rejected: %a@." Rustlite.Toolchain.pp_error e
  | Ok ext -> (
    match Pipeline.load_rustlite world ext with
    | Error e -> Format.printf "load failed: %a@." Pipeline.pp_error e
    | Ok loaded ->
      Printf.printf "tracing 3 scheduler hits on 2 tasks...\n";
      let nginx = List.nth world.World.kernel.Kernel_sim.Kernel.tasks 0 in
      let tasks = world.World.kernel.Kernel_sim.Kernel.tasks in
      List.iteri
        (fun i task ->
          Kernel_sim.Kernel.set_current world.World.kernel task;
          let r = Invoke.run world loaded in
          Format.printf "hit %d on %-9s -> %a@." (i + 1)
            task.Kernel_sim.Kobject.comm Invoke.pp_outcome r.Invoke.outcome)
        (List.concat [ tasks; [ nginx ] ]);
      (* userspace drains the ring buffer *)
      (match
         List.find_map
           (fun (name, id) ->
             if String.equal name "events" then
               Option.bind (Bpf_map.Registry.find world.World.maps id) Bpf_map.ringbuf
             else None)
           (match loaded with
           | Pipeline.Rustlite_ext { map_ids; _ } -> map_ids
           | Pipeline.Ebpf_prog _ -> [])
       with
      | None -> ()
      | Some rb ->
        let records = Ringbuf.consume rb in
        Printf.printf "\nring buffer drained: %d records\n" (List.length records);
        List.iteri
          (fun i record ->
            let pid_tgid = Bytes.get_int64_le record 0 in
            let count = Bytes.get_int64_le record 8 in
            let t = Bytes.get_int64_le record 16 in
            Printf.printf "  record %d: pid=%Ld count=%Ld t=%Ldns\n" i
              (Int64.logand pid_tgid 0xffff_ffffL) count t)
          records);
      let health = Kernel_sim.Kernel.health world.World.kernel in
      Format.printf "kernel after tracing: %a@." Kernel_sim.Kernel.pp_health health)
