(* Execution context handed to every helper implementation: the simulated
   kernel, the map registry, the resource table for RAII-style cleanup, the
   bug database, and runtime callbacks (time/fuel charging and subprogram
   invocation for callback-taking helpers like bpf_loop). *)

module Kernel = Kernel_sim.Kernel
module Kmem = Kernel_sim.Kmem
module Kobject = Kernel_sim.Kobject

exception Tail_call of int
(* raised by bpf_tail_call: the runtime replaces the current program *)

type t = {
  kernel : Kernel.t;
  maps : Maps.Bpf_map.Registry.t;
  mutable resources : Resources.t;
  bugs : Bugdb.t;
  owner : string;                      (* lock-ownership context *)
  mutable rng_state : int64;           (* deterministic bpf_get_prandom_u32 *)
  mutable call_subprog : (int -> int64 array -> int64) option;
  mutable charge : int64 -> unit;      (* advance simulated time / burn fuel *)
  mutable helper_calls : int;
  mutable loop_depth : int;
  mutable trace : string list;         (* bpf_trace_printk output, newest first *)
  mutable skb : Kobject.sk_buff option; (* packet attached to this invocation *)
  prog_array : (int, int) Hashtbl.t;   (* tail-call map: index -> prog id *)
  (* reusable per-depth program stack frames (512B each), shared by the
     interpreter and the JIT so repeated runs do not grow the address space *)
  frames : Kmem.region option array;
  (* bpf_timer model: (deadline_ns, callback pc, callback ctx) armed by the
     program, fired by the runtime once the invocation completes (the
     simulated softirq). *)
  mutable timers : (int64 * int * int64) list;
}

(* The PRNG seed every context starts from: every invocation sees the same
   deterministic stream, whether its context is fresh or pooled and
   [reset]. *)
let initial_rng_seed = 0x853c49e6748fea9bL

let create ?(owner = "bpf_prog") ~kernel ~maps ~bugs () =
  { kernel; maps; resources = Resources.create (); bugs; owner;
    rng_state = initial_rng_seed; call_subprog = None; charge = (fun _ -> ());
    helper_calls = 0; loop_depth = 0; trace = []; skb = None;
    prog_array = Hashtbl.create 4; frames = Array.make 16 None; timers = [] }

let charge t ns = t.charge ns

(* Return a context to its just-created state while keeping the expensive
   parts — the preallocated stack frames and the kernel/map wiring — so a
   serving loop can reuse one context across invocations instead of
   rebuilding it per run.  The tail-call table is the world's job to refresh
   (World.sync_hctx). *)
let reset t =
  t.resources <- Resources.create ();
  t.rng_state <- initial_rng_seed;
  t.call_subprog <- None;
  t.charge <- (fun _ -> ());
  t.helper_calls <- 0;
  t.loop_depth <- 0;
  t.trace <- [];
  t.skb <- None;
  t.timers <- []

(* xorshift64*: deterministic, seedable PRNG for bpf_get_prandom_u32 and the
   random map accesses of the §2.2 termination exploit. *)
let next_random t =
  let x = t.rng_state in
  let x = Int64.logxor x (Int64.shift_left x 13) in
  let x = Int64.logxor x (Int64.shift_right_logical x 7) in
  let x = Int64.logxor x (Int64.shift_left x 17) in
  t.rng_state <- x;
  x

let trace_output t = List.rev t.trace

(* Fetch (or lazily create) the reusable stack frame for a call depth. *)
let stack_frame t depth =
  match t.frames.(depth) with
  | Some r -> r
  | None ->
    let r =
      Kmem.alloc t.kernel.Kernel.mem ~size:512 ~kind:"stack"
        ~name:(Printf.sprintf "bpf_stack[%d]" depth) ()
    in
    t.frames.(depth) <- Some r;
    r
