(* A closure-compiling "JIT": each instruction is translated once into an
   OCaml closure, removing the decode/dispatch cost from the hot loop.  This
   is the downstream component §2.1 warns about: "even a perfectly coded
   verifier cannot prevent malicious eBPF programs from exploiting bugs in
   downstream components ... such as the JIT compiler".

   An image is compiled against one helper context and may run many times:
   a pooled invocation context ([Framework.Invoke]) keeps its images for as
   long as one epoch is pinned, as Linux JITs a program once at load.  So
   the closures capture only the program, the helper context and what the
   instruction encodes; every per-run budget (fuel left, instructions
   retired, simulated cost per instruction) lives in [jstate], and a
   subprogram frame runs under the caller's budget.

   [bug_branch_off_by_one] models CVE-2021-29154 (BPF JIT branch-offset
   miscomputation): with the bug enabled, *backward* branches are compiled
   one instruction short, so a verified program's control flow lands on an
   unintended instruction — a control-flow hijack certified safe by the
   verifier. *)

module Kmem = Kernel_sim.Kmem
module Oops = Kernel_sim.Oops
module Rcu = Kernel_sim.Rcu
module Vclock = Kernel_sim.Vclock
module Hctx = Helpers.Hctx
open Ebpf

(* Everything one run reads or spends lives here, never in the compiled
   closures, so one image serves runs with any budget. *)
type jstate = {
  regs : int64 array;
  mutable jpc : int;
  mutable done_ : bool;
  mutable fuel : int;       (* remaining instructions; negative = unlimited *)
  mutable executed : int;   (* instructions retired, subprogram frames included *)
  ns_per_insn : int;        (* simulated cost per instruction *)
}

type compiled = {
  prog : Program.t;
  ops : (jstate -> unit) array;
  bug_branch_off_by_one : bool;
}

let tele_compiles = Telemetry.Registry.counter "jit.compiles"
let tele_runs = Telemetry.Registry.counter "jit.runs"
let tele_insns = Telemetry.Registry.counter "jit.insns"
let tele_op_alu = Telemetry.Registry.counter "jit.op.alu"
let tele_op_ld = Telemetry.Registry.counter "jit.op.ld"
let tele_op_st = Telemetry.Registry.counter "jit.op.st"
let tele_op_atomic = Telemetry.Registry.counter "jit.op.atomic"
let tele_op_jmp = Telemetry.Registry.counter "jit.op.jmp"
let tele_op_call = Telemetry.Registry.counter "jit.op.call"
let tele_op_exit = Telemetry.Registry.counter "jit.op.exit"
let tele_run_ns = Telemetry.Registry.histogram "jit.run.ns"

let op_counter = function
  | Insn.Alu _ -> tele_op_alu
  | Insn.Ld_imm64 _ | Insn.Ld_map_fd _ | Insn.Ldx _ -> tele_op_ld
  | Insn.St _ | Insn.Stx _ -> tele_op_st
  | Insn.Atomic _ -> tele_op_atomic
  | Insn.Ja _ | Insn.Jmp _ -> tele_op_jmp
  | Insn.Call _ | Insn.Call_sub _ -> tele_op_call
  | Insn.Exit -> tele_op_exit

let compile ?(bug_branch_off_by_one = false) ?(elide = [||]) (hctx : Hctx.t)
    (prog : Program.t) : compiled =
  Telemetry.Registry.bump tele_compiles;
  let mem = hctx.kernel.mem in
  let branch_target pc off =
    let t = pc + 1 + off in
    (* the bug: backward targets computed without the +1 *)
    if bug_branch_off_by_one && off < 0 then pc + off else t
  in
  (* the oops context of a faulting instruction, built only in the arms that
     can fault: formatting it costs more than compiling most instructions *)
  let ctx_of pc = Printf.sprintf "bpf_jit+%d" pc in
  let compile_one pc insn : jstate -> unit =
    match insn with
    | Insn.Jmp _
      when (not bug_branch_off_by_one)
           && pc < Array.length elide
           && elide.(pc) >= 0 ->
      (* a guard the static analysis proved one-way compiles to an
         unconditional jump.  Suppressed under the CVE-2021-29154 branch
         bug: elision would bypass the miscomputed backward target and
         silently mask the modelled JIT bug. *)
      let t = elide.(pc) in
      fun st -> st.jpc <- t
    (* The ALU forms of a hot loop get closures of their own, chosen here:
       the operation compiles inline and nothing matches on the opcode at
       run time.  Every other form takes the generic closure below. *)
    | Insn.Alu { op = Insn.Add; width = Insn.W64; dst; src = Insn.Imm v } ->
      let c = Int64.of_int v in
      fun st ->
        st.regs.(dst) <- Int64.add st.regs.(dst) c;
        st.jpc <- pc + 1
    | Insn.Alu { op = Insn.Sub; width = Insn.W64; dst; src = Insn.Imm v } ->
      let c = Int64.of_int v in
      fun st ->
        st.regs.(dst) <- Int64.sub st.regs.(dst) c;
        st.jpc <- pc + 1
    | Insn.Alu { op = Insn.Xor; width = Insn.W64; dst; src = Insn.Imm v } ->
      let c = Int64.of_int v in
      fun st ->
        st.regs.(dst) <- Int64.logxor st.regs.(dst) c;
        st.jpc <- pc + 1
    | Insn.Alu { op = Insn.Mov; width = Insn.W64; dst; src = Insn.Imm v } ->
      let c = Int64.of_int v in
      fun st ->
        st.regs.(dst) <- c;
        st.jpc <- pc + 1
    | Insn.Alu { op = Insn.Mov; width = Insn.W64; dst; src = Insn.Reg r } ->
      fun st ->
        st.regs.(dst) <- st.regs.(r);
        st.jpc <- pc + 1
    | Insn.Alu { op; width; dst; src } ->
      let get_s =
        match src with
        | Insn.Reg r -> fun (st : jstate) -> st.regs.(r)
        | Insn.Imm v ->
          let c = Int64.of_int v in
          fun _ -> c
      in
      let apply d s =
        match op with
        | Insn.Add -> Int64.add d s
        | Insn.Sub -> Int64.sub d s
        | Insn.Mul -> Int64.mul d s
        | Insn.Div -> if Int64.equal s 0L then 0L else Int64.unsigned_div d s
        | Insn.Mod -> if Int64.equal s 0L then d else Int64.unsigned_rem d s
        | Insn.Or -> Int64.logor d s
        | Insn.And -> Int64.logand d s
        | Insn.Xor -> Int64.logxor d s
        | Insn.Mov -> s
        | Insn.Neg -> Int64.neg d
        | Insn.Lsh -> Int64.shift_left d (Int64.to_int (Int64.logand s 63L))
        | Insn.Rsh -> Int64.shift_right_logical d (Int64.to_int (Int64.logand s 63L))
        | Insn.Arsh -> Int64.shift_right d (Int64.to_int (Int64.logand s 63L))
      in
      (match width with
      | Insn.W64 ->
        fun st ->
          st.regs.(dst) <- apply st.regs.(dst) (get_s st);
          st.jpc <- pc + 1
      | Insn.W32 ->
        fun st ->
          let d32 = Int64.logand st.regs.(dst) 0xffff_ffffL in
          let s32 = Int64.logand (get_s st) 0xffff_ffffL in
          st.regs.(dst) <- Int64.logand (apply d32 s32) 0xffff_ffffL;
          st.jpc <- pc + 1)
    | Insn.Ld_imm64 (dst, v) ->
      fun st ->
        st.regs.(dst) <- v;
        st.jpc <- pc + 1
    | Insn.Ld_map_fd (dst, fd) ->
      let v = Int64.of_int fd in
      fun st ->
        st.regs.(dst) <- v;
        st.jpc <- pc + 1
    | Insn.Ldx { size; dst; src; off } ->
      let sz = Insn.size_bytes size in
      let ctx_str = ctx_of pc in
      fun st ->
        st.regs.(dst) <-
          Kmem.load mem ~size:sz ~addr:(Int64.add st.regs.(src) (Int64.of_int off))
            ~context:ctx_str;
        st.jpc <- pc + 1
    | Insn.St { size; dst; off; imm } ->
      let sz = Insn.size_bytes size in
      let ctx_str = ctx_of pc in
      let v = Int64.of_int imm in
      fun st ->
        Kmem.store mem ~size:sz ~addr:(Int64.add st.regs.(dst) (Int64.of_int off))
          ~value:v ~context:ctx_str;
        st.jpc <- pc + 1
    | Insn.Stx { size; dst; off; src } ->
      let sz = Insn.size_bytes size in
      let ctx_str = ctx_of pc in
      fun st ->
        Kmem.store mem ~size:sz ~addr:(Int64.add st.regs.(dst) (Int64.of_int off))
          ~value:st.regs.(src) ~context:ctx_str;
        st.jpc <- pc + 1
    | Insn.Atomic { aop; size; dst; src; off; fetch } ->
      let sz = Insn.size_bytes size in
      let ctx_str = ctx_of pc in
      fun st ->
        let addr = Int64.add st.regs.(dst) (Int64.of_int off) in
        let old = Kmem.load mem ~size:sz ~addr ~context:ctx_str in
        (match aop with
        | Insn.A_add ->
          Kmem.store mem ~size:sz ~addr ~value:(Int64.add old st.regs.(src)) ~context:ctx_str;
          if fetch then st.regs.(src) <- old
        | Insn.A_or ->
          Kmem.store mem ~size:sz ~addr ~value:(Int64.logor old st.regs.(src)) ~context:ctx_str;
          if fetch then st.regs.(src) <- old
        | Insn.A_and ->
          Kmem.store mem ~size:sz ~addr ~value:(Int64.logand old st.regs.(src)) ~context:ctx_str;
          if fetch then st.regs.(src) <- old
        | Insn.A_xor ->
          Kmem.store mem ~size:sz ~addr ~value:(Int64.logxor old st.regs.(src)) ~context:ctx_str;
          if fetch then st.regs.(src) <- old
        | Insn.A_xchg ->
          Kmem.store mem ~size:sz ~addr ~value:st.regs.(src) ~context:ctx_str;
          st.regs.(src) <- old
        | Insn.A_cmpxchg ->
          let expected =
            if sz = 4 then Int64.logand st.regs.(0) 0xffff_ffffL else st.regs.(0)
          in
          if Int64.equal old expected then
            Kmem.store mem ~size:sz ~addr ~value:st.regs.(src) ~context:ctx_str;
          st.regs.(0) <- old);
        st.jpc <- pc + 1
    | Insn.Ja off ->
      let t = branch_target pc off in
      fun st -> st.jpc <- t
    | Insn.Jmp { cond; width; dst; src; off } ->
      let t = branch_target pc off in
      let get_s =
        match src with
        | Insn.Reg r -> fun (st : jstate) -> st.regs.(r)
        | Insn.Imm v ->
          let c = Int64.of_int v in
          fun _ -> c
      in
      let sext32 x = Int64.shift_right (Int64.shift_left x 32) 32 in
      fun st ->
        let d = st.regs.(dst) and s = get_s st in
        let d, s =
          match width with
          | Insn.W64 -> (d, s)
          | Insn.W32 -> (Int64.logand d 0xffff_ffffL, Int64.logand s 0xffff_ffffL)
        in
        let ds, ss =
          match width with Insn.W64 -> (d, s) | Insn.W32 -> (sext32 d, sext32 s)
        in
        let taken =
          match cond with
          | Insn.Eq -> Int64.equal d s
          | Insn.Ne -> not (Int64.equal d s)
          | Insn.Gt -> Int64.unsigned_compare d s > 0
          | Insn.Ge -> Int64.unsigned_compare d s >= 0
          | Insn.Lt -> Int64.unsigned_compare d s < 0
          | Insn.Le -> Int64.unsigned_compare d s <= 0
          | Insn.Set -> not (Int64.equal (Int64.logand d s) 0L)
          | Insn.Sgt -> Int64.compare ds ss > 0
          | Insn.Sge -> Int64.compare ds ss >= 0
          | Insn.Slt -> Int64.compare ds ss < 0
          | Insn.Sle -> Int64.compare ds ss <= 0
        in
        st.jpc <- (if taken then t else pc + 1)
    | Insn.Call helper_id -> (
      match Helpers.Registry.find helper_id with
      | None ->
        let ctx_str = ctx_of pc in
        fun _ ->
          Oops.raise_oops ~kind:(Oops.Bug (Printf.sprintf "unknown helper %d" helper_id))
            ~context:ctx_str ~time_ns:(Vclock.now hctx.kernel.clock) ()
      | Some def ->
        fun st ->
          hctx.helper_calls <- hctx.helper_calls + 1;
          st.regs.(0) <-
            Helpers.Registry.invoke def hctx
              [| st.regs.(1); st.regs.(2); st.regs.(3); st.regs.(4); st.regs.(5) |];
          st.jpc <- pc + 1)
    | Insn.Call_sub off ->
      (* the JIT delegates subprogram frames to the interpreter (as real
         JITs call the image of the other function), under the caller's
         budget: the frame starts with the fuel left and hands back what it
         did not burn and what it retired, also when a guard trip or an
         oops ends the run inside it.  The callback hook a helper call in
         the frame installs dies with the frame: left in place, it would
         run a later callback on the finished interpreter, outside the
         caller's fuel and retired count. *)
      let target = pc + 1 + off in
      fun st ->
        let interp =
          Interp.create ~fuel:(Int64.of_int st.fuel)
            ~ns_per_insn:(Int64.of_int st.ns_per_insn) hctx
        in
        let hook = hctx.call_subprog in
        Interp.arm_profiler interp prog;
        Fun.protect
          ~finally:(fun () ->
            st.fuel <- Int64.to_int interp.Interp.fuel;
            st.executed <- st.executed + Int64.to_int interp.Interp.insns_retired;
            hctx.call_subprog <- hook;
            Interp.flush_tallies interp prog.Program.insns)
          (fun () ->
            st.regs.(0) <-
              Interp.exec_insns interp prog.Program.insns ~entry:target ~depth:1
                ~args:[| st.regs.(1); st.regs.(2); st.regs.(3); st.regs.(4); st.regs.(5) |]);
        st.jpc <- pc + 1
    | Insn.Exit -> fun st -> st.done_ <- true
  in
  (* Opcode classes are counted at compile time (the static mix of what the
     JIT emitted).  Counting dynamically would need a per-op wrapper closure
     — re-adding exactly the dispatch indirection the JIT exists to remove
     (measured at ~+28% on the run loop).  Dynamic totals are still visible
     as [jit.insns]. *)
  Array.iter (fun insn -> Telemetry.Registry.incr (op_counter insn)) prog.Program.insns;
  { prog; ops = Array.mapi compile_one prog.Program.insns;
    bug_branch_off_by_one }

(* Run compiled code.  The same guards as the interpreter apply.  [spans]
   is the bound pass's fuel-check window vector: same batching contract as
   the interpreter (charge a straight-line window up front only when the
   tank covers it; the executed count and clock stay per-op), so trip
   points and outcomes are bit-identical with batching on or off. *)
let run_counted ?(fuel = -1L) ?(ns_per_insn = 1L) ?(spans = [||])
    (hctx : Hctx.t) (c : compiled) ~ctx_addr : Interp.outcome * int64 =
  let stack = Hctx.stack_frame hctx 0 in
  let st =
    { regs = Array.make 11 0L; jpc = 0; done_ = false;
      fuel = Int64.to_int fuel; executed = 0;
      ns_per_insn = Int64.to_int ns_per_insn }
  in
  st.regs.(1) <- ctx_addr;
  st.regs.(10) <- Int64.add stack.Kmem.base 512L;
  (* helpers charge their simulated cost to the clock, as under the
     interpreter *)
  hctx.charge <- (fun ns -> Vclock.advance hctx.kernel.clock ns);
  Telemetry.Registry.bump tele_runs;
  (* Sampling profiler: armed per run like the interpreter's; disabled cost
     is one predictable branch per op. *)
  let prof_on = Telemetry.Registry.enabled () && Telemetry.Profiler.enabled () in
  (* The closure array erases block structure, so there is no control-
     transfer site to hang the deadline check on as the interpreter does;
     instead the clock compare runs every 16th op (gated by an int mask on
     the op counter), bounding both the check cost and the sampling skew. *)
  let prof_next =
    ref
      (if prof_on then
         Telemetry.Profiler.next_deadline ~now:(Vclock.now hctx.kernel.clock)
       else Int64.max_int)
  in
  let prof_leaders =
    ref (if prof_on then Interp.block_leader_map c.prog.Program.insns else [||])
  in
  let prof_sample jpc =
    prof_next :=
      Telemetry.Profiler.next_deadline ~now:(Vclock.now hctx.kernel.clock);
    let leaders = !prof_leaders in
    let block = if jpc >= 0 && jpc < Array.length leaders then leaders.(jpc) else jpc in
    Telemetry.Profiler.record
      (c.prog.Program.name ^ ";jit;block:" ^ string_of_int block)
  in
  let result =
    Telemetry.Registry.with_span "jit.run" ~hist:tele_run_ns
      ~clock:(fun () -> Vclock.now hctx.kernel.clock)
      (fun () ->
        let rcu = hctx.kernel.rcu in
        Rcu.read_lock rcu;
        (* same off-by-one-free fuel semantics as Interp.tick: the check
           precedes the op, so fuel:N runs exactly N instructions *)
        let batch = ref 0 in
        match
          while not st.done_ do
            if st.jpc < 0 || st.jpc >= Array.length c.ops then
              Oops.raise_oops ~kind:Oops.Control_flow_hijack
                ~context:(Printf.sprintf "jit pc=%d out of program" st.jpc)
                ~time_ns:(Vclock.now hctx.kernel.clock) ();
            if !batch > 0 then decr batch
            else if st.fuel >= 0 then begin
              let s =
                if st.jpc < Array.length spans then
                  Array.unsafe_get spans st.jpc
                else 1
              in
              if s > 1 && st.fuel >= s then begin
                st.fuel <- st.fuel - s;
                batch := s - 1
              end
              else begin
                if st.fuel = 0 then raise (Guard.Terminate Guard.Fuel_exhausted);
                st.fuel <- st.fuel - 1
              end
            end;
            let e = st.executed + 1 in
            st.executed <- e;
            Vclock.advance hctx.kernel.clock ns_per_insn;
            if prof_on && e land 15 = 0
               && Int64.compare (Vclock.now hctx.kernel.clock) !prof_next >= 0
            then prof_sample st.jpc;
            c.ops.(st.jpc) st
          done
        with
        | () ->
          Rcu.read_unlock rcu ~context:"bpf_jit exit";
          Interp.Ret st.regs.(0)
        | exception Guard.Terminate reason -> Interp.Terminated (Guard.terminate hctx reason)
        | exception Oops.Kernel_oops report ->
          Kernel_sim.Kernel.record_oops hctx.kernel report;
          Interp.Oopsed report)
  in
  if Telemetry.Registry.enabled () then
    Telemetry.Registry.incr tele_insns ~n:st.executed;
  ignore stack;
  (result, Int64.of_int st.executed)

let run ?fuel ?ns_per_insn ?spans hctx c ~ctx_addr =
  fst (run_counted ?fuel ?ns_per_insn ?spans hctx c ~ctx_addr)
