(** [untenable]: a complete, executable reproduction of {e Kernel extension
    verification is untenable} (HotOS '23).

    The umbrella module re-exports every subsystem:

    - {!Tnum} — tristate numbers, the verifier's abstract value domain;
    - {!Telemetry} — counters, histograms, trace spans, and the ring-buffer
      trace sink every other subsystem reports into;
    - {!Hash} — SHA-256/HMAC, shared by the signing toolchain and the
      content-addressed verdict cache;
    - {!Kernel_sim} — the simulated kernel (guarded memory, RCU, refcounts,
      spinlocks, memory pool, virtual clock, oops machine);
    - {!Maps} — eBPF maps (array/hash/LRU/per-CPU/ringbuf);
    - {!Ebpf} — bytecode ISA, assembler, encoder, disassembler, CFG;
    - {!Bpf_verifier} — the in-kernel-style verifier with injectable
      historical bugs;
    - {!Analysis} — the worklist dataflow engine and the static passes the
      load pipeline runs between fixup and the verify gate (resource
      obligations, lock discipline, redundant-guard elision);
    - {!Runtime} — interpreter, closure JIT, and the runtime guards
      (watchdog, fuel, stack guard, destructor-list termination);
    - {!Helpers} — the helper-function table with its own bug database;
    - {!Callgraph} — the calibrated synthetic kernel call graph (Figure 3);
    - {!Kerndata} — the paper's datasets (Figures 2/4, Tables 1/2, §3.2);
    - {!Rustlite} — the proposed safe-language framework (typed AST,
      ownership checker, signing toolchain, RAII kernel crate);
    - {!Framework} — worlds, the staged load pipeline with its verdict
      cache ([Pipeline]), invocation ([Invoke]), attach points and the
      serving loop ([Serve]) with per-extension supervision (circuit
      breakers, quarantine, chaos injection), the exploit corpus, and the
      executable safety matrix;
    - {!Fuzz} — the differential fuzzing subsystem: a seeded program
      generator, an execution-mode conformance oracle, a divergence
      shrinker, and corpus persistence for replay.

    Quick start (see also [examples/quickstart.ml]):

    {[
      let world = Untenable.Framework.World.create_populated () in
      let prog = (* build with Untenable.Ebpf.Asm *) ... in
      match Untenable.Framework.Pipeline.load_ebpf world prog with
      | Ok loaded ->
        let report = Untenable.Framework.Invoke.run world loaded in
        Format.printf "%a@." Untenable.Framework.Invoke.pp_outcome
          report.Untenable.Framework.Invoke.outcome
      | Error e -> Format.printf "%a@." Untenable.Framework.Pipeline.pp_error e
    ]}

    To serve a packet stream through attached extensions, build a
    [Framework.Serve.plan] and call [Framework.Serve.run]; the CLI's
    [serve] command does exactly that ([untenable-cli serve --crasher
    --policy supervise]). *)

module Tnum = Tnum
module Telemetry = Telemetry
module Hash = Hash
module Kernel_sim = Kernel_sim
module Maps = Maps
module Ebpf = Ebpf
module Bpf_verifier = Bpf_verifier
module Analysis = Analysis
module Runtime = Runtime
module Helpers = Helpers
module Callgraph = Callgraph
module Kerndata = Kerndata
module Rustlite = Rustlite
module Framework = Framework
module Fuzz = Fuzz

let version = "1.0.0"

let paper =
  "Jia, Sahu, Oswald, Williams, Le, Xu: Kernel extension verification is \
   untenable. HotOS '23. https://doi.org/10.1145/3593856.3595892"
