(* The benchmark/reproduction harness: one generator per figure and table
   of the paper, plus bechamel microbenchmarks for the performance claims.

     dune exec bench/main.exe            regenerate everything, paper order
     dune exec bench/main.exe -- fig2    one experiment (fig2 fig3 fig4 tab1
                                         tab2 exp-safety exp-term exp-retire
                                         exp-vcost perf)

   Each generator prints the paper's reported numbers next to the measured
   ones; EXPERIMENTS.md records the comparison. *)

open Untenable
module Report = Framework.Report
module Exploits = Framework.Exploits
module World = Framework.World
module Pipeline = Framework.Pipeline
module Invoke = Framework.Invoke
module Vconfig = Bpf_verifier.Verifier
module Serve = Framework.Serve
module Kver = Kerndata.Kver

(* ------------------------------------------------------------------ *)
(* Figure 2: verifier LoC growth                                       *)
(* ------------------------------------------------------------------ *)

let fig2 () =
  print_string (Report.section "Figure 2: LoC of the eBPF verifier by kernel version");
  print_string
    (Report.table
       ~header:[ "version"; "year"; "LoC"; "features driving the growth" ]
       (List.map
          (fun (p : Kerndata.Verifier_loc.point) ->
            [ Kver.to_string p.version;
              string_of_int (Kver.year p.version);
              string_of_int p.loc;
              String.concat "; " p.features_added ])
          Kerndata.Verifier_loc.series));
  print_string
    (Report.bar_chart
       (List.map
          (fun (p : Kerndata.Verifier_loc.point) ->
            (Kver.to_string p.version, float_of_int p.loc))
          Kerndata.Verifier_loc.series));
  Printf.printf
    "growth: %.1fx over 2014-2022 (paper: ~2k to ~12k LoC, monotone: %b)\n"
    Kerndata.Verifier_loc.growth_factor Kerndata.Verifier_loc.monotone;
  (* the executable cross-check: this repo's own verifier grows the same
     way — features map to config knobs and code paths that exist here *)
  Printf.printf
    "cross-check: this repository's verifier implements the same feature\n\
     ladder (bounds tracking, state pruning, spin-lock tracking, reference\n\
     tracking, bounded loops, callback verification) — see exp-vcost for\n\
     what each costs.\n"

(* ------------------------------------------------------------------ *)
(* Figure 3: call-graph complexity of each helper                      *)
(* ------------------------------------------------------------------ *)

let fig3 () =
  print_string (Report.section "Figure 3: call-graph complexity of each eBPF helper");
  let built = Callgraph.Kernel_graph.build () in
  let dist = Callgraph.Analysis.measure built in
  Printf.printf "synthetic Linux-5.18 call graph: %d nodes, %d edges, %d helper roots\n"
    (Callgraph.Graph.node_count built.Callgraph.Kernel_graph.graph)
    (Callgraph.Graph.edge_count built.Callgraph.Kernel_graph.graph)
    dist.Callgraph.Analysis.n;
  Printf.printf "\nper-helper reachable-node counts (log buckets):\n";
  print_string (Report.log_buckets_chart (Callgraph.Analysis.log_histogram dist));
  let row name =
    match Callgraph.Analysis.find dist name with
    | Some m -> Printf.printf "  %-26s %5d nodes\n" name m.Callgraph.Analysis.nodes
    | None -> ()
  in
  Printf.printf "\nanchors the paper names exactly:\n";
  row "bpf_get_current_pid_tgid";
  row "bpf_sys_bpf";
  print_string
    (Report.table
       ~header:[ "statistic"; "paper"; "measured" ]
       [ [ "helpers (5.18 census)"; "249"; string_of_int dist.Callgraph.Analysis.n ];
         [ "share with 30+ nodes"; "52.2%";
           Printf.sprintf "%.1f%%" (100. *. dist.Callgraph.Analysis.share_ge30) ];
         [ "share with 500+ nodes"; "34.5%";
           Printf.sprintf "%.1f%%" (100. *. dist.Callgraph.Analysis.share_ge500) ];
         [ "bpf_get_current_pid_tgid"; "calls nothing (1)";
           string_of_int
             (match Callgraph.Analysis.find dist "bpf_get_current_pid_tgid" with
             | Some m -> m.Callgraph.Analysis.nodes
             | None -> -1) ];
         [ "bpf_sys_bpf"; "4845";
           string_of_int
             (match Callgraph.Analysis.find dist "bpf_sys_bpf" with
             | Some m -> m.Callgraph.Analysis.nodes
             | None -> -1) ] ])

(* ------------------------------------------------------------------ *)
(* Figure 4: number of helpers by version                              *)
(* ------------------------------------------------------------------ *)

let fig4 () =
  print_string (Report.section "Figure 4: number of eBPF helpers by kernel version");
  print_string
    (Report.table
       ~header:[ "version"; "year"; "#helpers" ]
       (List.map
          (fun (p : Kerndata.Helper_history.point) ->
            [ Kver.to_string p.version; string_of_int (Kver.year p.version);
              string_of_int p.count ])
          Kerndata.Helper_history.series));
  print_string
    (Report.bar_chart
       (List.map
          (fun (p : Kerndata.Helper_history.point) ->
            (Kver.to_string p.version, float_of_int p.count))
          Kerndata.Helper_history.series));
  Printf.printf
    "slope: %.1f helpers per two years (paper: \"roughly 50 helper functions \
     are added every two years\")\n"
    Kerndata.Helper_history.per_two_years;
  Printf.printf
    "Fig. 3 census cross-check: %d helpers in 5.18 counting per-program-type entries\n"
    Kerndata.Helper_history.census_5_18;
  (* executable cross-check against our own registry *)
  Printf.printf "\nimplemented-registry growth (this repo's %d helpers):\n"
    Helpers.Registry.count;
  List.iter
    (fun v ->
      Printf.printf "  %-6s %2d implemented\n" (Kver.to_string v)
        (List.length (Helpers.Registry.available ~version:v)))
    Kver.figure_axis

(* ------------------------------------------------------------------ *)
(* Table 1: bug statistics, with the executable demo per class         *)
(* ------------------------------------------------------------------ *)

let tab1 ?(run_demos = true) () =
  print_string
    (Report.section "Table 1: bugs in eBPF helpers and verifier (2021-2022)");
  print_string
    (Report.table
       ~header:[ "Vulnerabilities/Bugs"; "Total"; "Helper"; "Verifier" ]
       (List.map
          (fun (c : Kerndata.Bug_stats.clazz) ->
            [ c.name; string_of_int c.total; string_of_int c.in_helpers;
              string_of_int c.in_verifier ])
          Kerndata.Bug_stats.classes
       @ [ [ "Total"; string_of_int Kerndata.Bug_stats.total;
             string_of_int Kerndata.Bug_stats.total_helpers;
             string_of_int Kerndata.Bug_stats.total_verifier ] ]));
  let pt, ph, pv = Kerndata.Bug_stats.paper_totals in
  Printf.printf "paper totals: %d = %d helper + %d verifier (encoded exactly)\n" pt ph pv;
  if run_demos then begin
    Printf.printf
      "\nexecutable instances (each demo run on a vulnerable and a fixed kernel):\n";
    print_string
      (Report.table
         ~header:[ "class"; "demo"; "vulnerable kernel"; "fixed kernel"; "class demonstrated" ]
         (List.map
            (fun (d : Exploits.demo) ->
              let v = d.run ~vulnerable:true in
              let f = d.run ~vulnerable:false in
              [ d.bug_class; d.id;
                (if v.Exploits.attack_succeeded then "attack succeeded" else "no attack");
                (if f.Exploits.attack_succeeded then "ATTACK SUCCEEDED" else "defended");
                Report.check (v.Exploits.attack_succeeded && not f.Exploits.attack_succeeded) ])
            Exploits.all))
  end

(* ------------------------------------------------------------------ *)
(* Table 2: safety properties and enforcement                          *)
(* ------------------------------------------------------------------ *)

let tab2 () =
  print_string
    (Report.section "Table 2: safety properties of the proposed framework (executable)");
  let rows = Framework.Safety_matrix.rows () in
  print_string
    (Report.table
       ~header:[ "Safety property"; "Enforcement (paper)"; "Upheld" ]
       (List.map
          (fun (r : Framework.Safety_matrix.row) ->
            [ r.property; Kerndata.Safety_props.mechanism_to_string r.mechanism;
              Report.check r.upheld ])
          rows));
  Printf.printf "witness details:\n";
  List.iter
    (fun (r : Framework.Safety_matrix.row) ->
      Printf.printf "  %s\n    attempt:  %s\n    observed: %s\n" r.property r.witness
        r.observed)
    rows

(* ------------------------------------------------------------------ *)
(* EXP-SAFETY (§2.2 bullet 1)                                          *)
(* ------------------------------------------------------------------ *)

let exp_safety () =
  print_string
    (Report.section "EXP-SAFETY (§2.2): crash the kernel through bpf_sys_bpf");
  List.iter
    (fun (d : Exploits.demo) ->
      Printf.printf "\n%s\n" d.title;
      List.iter
        (fun vulnerable ->
          let r = d.run ~vulnerable in
          Printf.printf "  %-18s load: %s\n  %-18s run:  %s\n"
            (if vulnerable then "[pre-fix kernel]" else "[post-fix kernel]")
            r.Exploits.gate "" r.Exploits.runtime)
        [ true; false ])
    [ Exploits.sys_bpf_null_union; Exploits.sys_bpf_arbitrary_read ];
  Printf.printf
    "\npaper: \"we achieved a kernel crash by dereferencing the NULL pointer \
     inside\nthe union ... soon was determined to be exploitable (allowing an \
     arbitrary\nkernel read) and assigned a CVE\" — both reproduced above.\n"

(* ------------------------------------------------------------------ *)
(* EXP-TERM (§2.2 bullet 2)                                            *)
(* ------------------------------------------------------------------ *)

let exp_term () =
  print_string
    (Report.section "EXP-TERM (§2.2): nested bpf_loop runs (effectively) forever");
  Printf.printf "sweep: simulated runtime vs iteration budget (all verifier-ACCEPTED):\n";
  let points =
    List.map
      (fun (outer, inner) -> Exploits.nested_loop_run ~outer ~inner ())
      [ (32, 32); (64, 64); (128, 128); (256, 256); (512, 512); (1024, 512) ]
  in
  print_string
    (Report.table
       ~header:[ "outer"; "inner"; "iterations"; "sim runtime"; "ns/iter"; "RCU stalls" ]
       (List.map
          (fun (p : Exploits.term_datapoint) ->
            [ string_of_int p.outer; string_of_int p.inner;
              string_of_int p.total_iterations;
              Format.asprintf "%a" Kernel_sim.Vclock.pp_duration p.sim_runtime_ns;
              Printf.sprintf "%.0f"
                (Int64.to_float p.sim_runtime_ns /. float_of_int p.total_iterations);
              string_of_int p.rcu_stalls ])
          points));
  (* linearity: R^2 of runtime vs iterations *)
  let xs = List.map (fun (p : Exploits.term_datapoint) -> float_of_int p.total_iterations) points in
  let ys = List.map (fun (p : Exploits.term_datapoint) -> Int64.to_float p.sim_runtime_ns) points in
  let n = float_of_int (List.length xs) in
  let sx = List.fold_left ( +. ) 0. xs and sy = List.fold_left ( +. ) 0. ys in
  let sxy = List.fold_left2 (fun a x y -> a +. (x *. y)) 0. xs ys in
  let sxx = List.fold_left (fun a x -> a +. (x *. x)) 0. xs in
  let syy = List.fold_left (fun a y -> a +. (y *. y)) 0. ys in
  let slope = ((n *. sxy) -. (sx *. sy)) /. ((n *. sxx) -. (sx *. sx)) in
  let r =
    ((n *. sxy) -. (sx *. sy))
    /. Float.sqrt (((n *. sxx) -. (sx *. sx)) *. ((n *. syy) -. (sy *. sy)))
  in
  Printf.printf
    "linear fit: %.1f ns/iteration, R^2 = %.6f (paper: \"linear control over \
     total runtime\")\n"
    slope (r *. r);
  let years iters = slope *. iters /. 1e9 /. 86400. /. 365.25 in
  Printf.printf "extrapolation at this slope:\n";
  Printf.printf "  paper's 800 s observation      = %.2e iterations\n" (800e9 /. slope);
  Printf.printf "  2 nested 8M-iteration loops   -> %.1f days\n"
    (years (8_388_608. ** 2.) *. 365.25);
  Printf.printf
    "  3 nested 8M-iteration loops   -> %.1e years (paper: \"millions of years\")\n"
    (years (8_388_608. ** 3.));
  (* the RCU stall itself, at the kernel's real 21 s threshold *)
  Printf.printf
    "\nRCU stall detection (threshold %.0f s, as in Linux): a 512x512 run at the\n\
     default simulated helper costs stays under it; the demo below scales the\n\
     threshold to 100 ms to show the stall firing, and the fixed kernel's\n\
     watchdog cutting the program first:\n"
    (Int64.to_float Kernel_sim.Rcu.default_stall_threshold_ns /. 1e9);
  List.iter
    (fun vulnerable ->
      let r = Exploits.nested_loop_stall.Exploits.run ~vulnerable in
      Printf.printf "  %-22s %s\n"
        (if vulnerable then "[no runtime guards]" else "[watchdog enabled]")
        r.Exploits.runtime)
    [ true; false ]

(* ------------------------------------------------------------------ *)
(* EXP-RETIRE (§3.2): the helper taxonomy, executably                  *)
(* ------------------------------------------------------------------ *)

let exp_retire () =
  print_string (Report.section "EXP-RETIRE (§3.2): helpers under a safe language");
  print_string
    (Report.table
       ~header:[ "disposition"; "count (paper)"; "examples" ]
       [ [ "retire"; Printf.sprintf "%d" Kerndata.Retirement.retire_count;
           "bpf_loop, bpf_strtol, bpf_strncmp, ..." ];
         [ "simplify"; "-"; "bpf_get_task_stack, bpf_sk_lookup_tcp, array lookup" ];
         [ "wrap"; "-"; "bpf_task_storage_get, bpf_sys_bpf" ] ]);
  Printf.printf "\nfull retire list (the paper counts 16):\n";
  List.iter
    (fun (e : Kerndata.Retirement.entry) ->
      if e.disposition = Kerndata.Retirement.Retire then
        Printf.printf "  %-26s %s\n" e.helper e.rustlite_counterpart)
    Kerndata.Retirement.entries;

  (* case study 1: bpf_strtol vs str::parse *)
  Printf.printf "\ncase study 1 — bpf_strtol vs core::str::parse:\n";
  let world = World.create_populated () in
  let hctx = World.new_hctx world in
  let kernel = world.World.kernel in
  let buf =
    Kernel_sim.Kmem.alloc kernel.Kernel_sim.Kernel.mem ~size:32 ~kind:"stack"
      ~name:"strtol_buf" ()
  in
  Kernel_sim.Kmem.store_bytes kernel.Kernel_sim.Kernel.mem ~addr:buf.Kernel_sim.Kmem.base
    ~src:(Bytes.of_string "-4711 trailing\000") ~context:"bench";
  let res_addr = Kernel_sim.Kmem.region_addr buf 24 in
  let ret =
    Helpers.Helpers_string.strtol hctx [| buf.Kernel_sim.Kmem.base; 16L; 0L; res_addr |]
  in
  let helper_result =
    Kernel_sim.Kmem.load kernel.Kernel_sim.Kernel.mem ~size:8 ~addr:res_addr ~context:"bench"
  in
  Printf.printf "  helper:   bpf_strtol(\"-4711 trailing\") = %Ld (consumed %Ld chars)\n"
    helper_result ret;
  let kctx = { Rustlite.Kcrate.hctx; map_ids = [] } in
  (match
     Rustlite.Eval.run ~kctx
       (Rustlite.Ast.Match_option
          { scrutinee = Rustlite.Ast.Str_parse (Rustlite.Ast.Lit_str "-4711");
            bind = "v"; some_branch = Rustlite.Ast.Var "v";
            none_branch = Rustlite.Ast.Lit_int 0L })
   with
  | Rustlite.Eval.Ret v -> Format.printf "  rustlite: \"-4711\".parse() = %a@." Rustlite.Value.pp v
  | other -> Format.printf "  rustlite: %a@." Rustlite.Eval.pp_outcome other);
  Printf.printf "  -> no kernel code involved: the helper can be retired\n";

  (* case study 2: bpf_strncmp vs pure comparison *)
  Printf.printf "\ncase study 2 — bpf_strncmp vs pure safe comparison:\n";
  (match
     Rustlite.Eval.run ~kctx
       (Rustlite.Ast.Str_cmp (Rustlite.Ast.Lit_str "alpha", Rustlite.Ast.Lit_str "beta"))
   with
  | Rustlite.Eval.Ret v -> Format.printf "  rustlite: strcmp(alpha,beta) = %a@." Rustlite.Value.pp v
  | other -> Format.printf "  rustlite: %a@." Rustlite.Eval.pp_outcome other);
  Printf.printf "  -> implemented entirely in the safe language: retired\n";

  (* case study 3: bpf_loop vs a native loop *)
  Printf.printf "\ncase study 3 — bpf_loop vs a native loop:\n";
  (match
     Rustlite.Eval.run ~kctx
       (Rustlite.Ast.Let
          { name = "acc"; mut = true; value = Rustlite.Ast.Lit_int 0L;
            body =
              Rustlite.Ast.Seq
                [ Rustlite.Ast.For
                    ( "i", Rustlite.Ast.Lit_int 0L, Rustlite.Ast.Lit_int 1000L,
                      Rustlite.Ast.Assign
                        ( "acc",
                          Rustlite.Ast.Binop
                            (Rustlite.Ast.Add, Rustlite.Ast.Var "acc",
                             Rustlite.Ast.Var "i") ) );
                  Rustlite.Ast.Var "acc" ] })
   with
  | Rustlite.Eval.Ret v ->
    Format.printf "  rustlite: sum of 0..999 via native for-loop = %a@." Rustlite.Value.pp v
  | other -> Format.printf "  rustlite: %a@." Rustlite.Eval.pp_outcome other);
  Printf.printf "  -> \"bpf_loop ... merely provides a loop mechanism\": retired\n";

  (* simplify/wrap case studies piggyback on the exploit corpus *)
  Printf.printf "\nsimplify/wrap case studies (buggy helper vs safe wrapper):\n";
  List.iter
    (fun id ->
      match Exploits.find id with
      | None -> ()
      | Some d ->
        let v = d.Exploits.run ~vulnerable:true in
        Printf.printf "  %-38s buggy helper: %s\n" d.Exploits.id
          (if v.Exploits.attack_succeeded then "bug manifests" else "no effect"))
    [ "hbug:get-task-stack-no-ref"; "hbug:sk-lookup-request-sock-leak";
      "hbug:array-map-32bit-overflow"; "hbug:task-storage-null-owner";
      "hbug:cve-2022-2785-sys-bpf" ];
  Printf.printf
    "  (rustlite wrappers for the same operations: RAII handles, checked\n\
    \   arithmetic and typed commands — see tab2 and the safe_tracer example)\n"

(* ------------------------------------------------------------------ *)
(* EXP-VCOST (§2.1): verification cost and the complexity budget       *)
(* ------------------------------------------------------------------ *)

(* A program with [n] branches whose paths all join: 2^n paths, but prunable
   states (jset does not refine, so the join states are identical). *)
let diamond_chain_prog n =
  let open Ebpf.Asm in
  let items =
    List.concat
      [ [ mov_i r0 0; ldxdw r6 r1 0 ];
        List.concat_map
          (fun i ->
            (* jset does not refine bounds: the two join states are equal,
               so pruning merges them; without pruning, 2^n paths *)
            [ jset_i r6 1 (Printf.sprintf "t%d" i);
              add_i r0 0;
              label (Printf.sprintf "t%d" i) ])
          (List.init n (fun i -> i));
        [ mov_i r0 0; Ebpf.Asm.exit_ ] ]
  in
  Ebpf.Program.of_items_exn ~name:(Printf.sprintf "diamond%d" n)
    ~prog_type:Ebpf.Program.Kprobe items

(* Branches that accumulate a path-unique bitmask defeat pruning — every
   join sees 2^i distinct constants, so no state subsumes another and the
   verifier hits its complexity budget: the §2.1 wall. *)
let unprunable_prog n =
  let open Ebpf.Asm in
  let items =
    List.concat
      [ [ mov_i r0 0; mov_i r7 0 ];
        List.concat_map
          (fun i ->
            [ ldxdw r6 r1 (8 * (i mod 8));
              jle_i r6 1000 (Printf.sprintf "t%d" i);
              or_i r7 (1 lsl i);
              label (Printf.sprintf "t%d" i) ])
          (List.init n (fun i -> i));
        [ mov_i r0 0; Ebpf.Asm.exit_ ] ]
  in
  Ebpf.Program.of_items_exn ~name:(Printf.sprintf "unprunable%d" n)
    ~prog_type:Ebpf.Program.Kprobe items

let verify_stats ?(prune = true) ?(budget = 1_000_000) prog =
  let config =
    { (Vconfig.default_config ()) with Vconfig.prune; insn_budget = budget }
  in
  let t0 = Unix.gettimeofday () in
  let result = Vconfig.verify ~config ~map_def:(fun _ -> None) prog in
  let dt = Unix.gettimeofday () -. t0 in
  (result, dt)

let prevail_stats prog =
  let t0 = Unix.gettimeofday () in
  let result = Bpf_verifier.Prevail.verify ~map_def:(fun _ -> None) prog in
  let dt = Unix.gettimeofday () -. t0 in
  (result, dt)

let exp_vcost () =
  print_string
    (Report.section "EXP-VCOST (§2.1): verification is expensive and must be capped");
  Printf.printf
    "path-joining branch chains (pruning merges the paths; without pruning the\n\
     walk is exponential — the ablation for design decision 1 in DESIGN.md):\n\n";
  print_string
    (Report.table
       ~header:[ "branches"; "paths"; "pruned: insns"; "pruned: time"; "unpruned: insns";
                 "unpruned: time" ]
       (List.map
          (fun n ->
            let prog = diamond_chain_prog n in
            let with_prune, t1 = verify_stats ~prune:true prog in
            let without, t2 = verify_stats ~prune:false ~budget:2_000_000 prog in
            [ string_of_int n;
              (if n < 62 then Printf.sprintf "2^%d" n else "huge");
              (match with_prune with
              | Ok s -> string_of_int s.Vconfig.insns_processed
              | Error r -> "REJECTED: " ^ r.Vconfig.reason);
              Printf.sprintf "%.1fms" (t1 *. 1000.);
              (match without with
              | Ok s -> string_of_int s.Vconfig.insns_processed
              | Error _ -> "budget exceeded");
              Printf.sprintf "%.1fms" (t2 *. 1000.) ])
          [ 4; 8; 12; 14; 16 ]));
  Printf.printf
    "\npath-unique state (a bitmask of taken branches) defeats pruning even in\n\
     a correct verifier — the scalability wall behind the complexity budget\n\
     (here capped at 100k processed instructions):\n\n";
  print_string
    (Report.table
       ~header:[ "branches"; "in-kernel DFS verdict"; "DFS insns"; "DFS time";
                 "PREVAIL-style AI"; "AI insns"; "AI time" ]
       (List.map
          (fun n ->
            let prog = unprunable_prog n in
            let result, dt = verify_stats ~budget:100_000 prog in
            let presult, pdt = prevail_stats prog in
            [ string_of_int n;
              (match result with
              | Ok _ -> "accepted"
              | Error _ -> "REJECTED (complexity)");
              (match result with
              | Ok s -> string_of_int s.Vconfig.insns_processed
              | Error _ -> ">100000 (budget)");
              Printf.sprintf "%.1fms" (dt *. 1000.);
              (match presult with
              | Ok _ -> "accepted"
              | Error r -> "rejected: " ^ r.Vconfig.reason);
              (match presult with
              | Ok s -> string_of_int s.Bpf_verifier.Prevail.insns_processed
              | Error _ -> "-");
              Printf.sprintf "%.1fms" (pdt *. 1000.) ])
          [ 8; 10; 12; 14; 16; 24; 32 ]));
  Printf.printf
    "\nthe §2.3 comparison: the PREVAIL-style userspace verifier (abstract\n\
     interpretation with joins) verifies the same family in linear work —\n\
     but joins lose path correlations, so it rejects some programs the\n\
     path-sensitive engine proves (see test/test_prevail.ml).\n";
  (* §2.1's false positives: a correct program the verifier cannot prove *)
  Printf.printf
    "\nfalse positives force code massage (§2.1: \"frequently reports false\n\
     positives that unnecessarily force developers to heavily massage correct\n\
     eBPF code\"):\n\n";
  let correct_mod =
    (* idx = value %% 16 is always in-bounds for a 16-byte map value, but the
       abstract domain loses modulo results: rejected *)
    let open Ebpf.Asm in
    Ebpf.Program.of_items_exn ~name:"mod16" ~prog_type:Ebpf.Program.Kprobe
      [ ldxdw r6 r1 0; mov_i r2 16; mod_r r6 r2;
        stdw r10 (-8) 0; map_fd r1 1; mov_r r2 r10; add_i r2 (-8);
        call (Helpers.Registry.id_of_name "bpf_map_lookup_elem"); jeq_i r0 0 "out";
        add_r r0 r6; ldxb r3 r0 0 [@warning "-26"]; label "out"; mov_i r0 0; exit_ ]
  in
  let massaged =
    (* the standard workaround: replace %% 16 with & 15 *)
    let open Ebpf.Asm in
    Ebpf.Program.of_items_exn ~name:"and15" ~prog_type:Ebpf.Program.Kprobe
      [ ldxdw r6 r1 0; and_i r6 15;
        stdw r10 (-8) 0; map_fd r1 1; mov_r r2 r10; add_i r2 (-8);
        call (Helpers.Registry.id_of_name "bpf_map_lookup_elem"); jeq_i r0 0 "out";
        add_r r0 r6; ldxb r3 r0 0 [@warning "-26"]; label "out"; mov_i r0 0; exit_ ]
  in
  let vmap = function
    | 1 ->
      Some { Maps.Bpf_map.name = "m"; kind = Maps.Bpf_map.Array; key_size = 4;
             value_size = 16; max_entries = 4; lock_off = None }
    | _ -> None
  in
  let verdict prog =
    match Vconfig.verify ~map_def:vmap prog with
    | Ok _ -> "accepted"
    | Error r -> Format.asprintf "REJECTED: %a" Vconfig.pp_reject r
  in
  print_string
    (Report.table
       ~header:[ "program (both are memory-safe)"; "verifier verdict" ]
       [ [ "idx = x % 16;  value[idx]"; verdict correct_mod ];
         [ "idx = x & 15;  value[idx]   (the massaged version)"; verdict massaged ] ]);
  Printf.printf
    "\npaper: \"the verifier ... has to limit the eBPF program size and \
     complexity\nto complete the verification in time.  To satisfy these \
     verifier limits,\ndevelopers need to find ways to break their program \
     into small pieces\" —\nsee examples/packet_filter.ml for the forced split.\n"

(* ------------------------------------------------------------------ *)
(* EXP-S4: the §4 discussion features, demonstrated                    *)
(* ------------------------------------------------------------------ *)

let exp_s4 () =
  print_string
    (Report.section "EXP-S4 (§4): dynamic allocation and hardware protection");
  (* dynamic allocation from the pre-allocated pool, RAII-recycled *)
  Printf.printf "dynamic memory allocation (pool-backed, non-sleepable-safe):
";
  let world = World.create_populated () in
  let kctx = { Rustlite.Kcrate.hctx = World.new_hctx world; map_ids = [] } in
  let src =
    Rustlite.Parser.parse_exn
      {|
        let mut sum = 0;
        for i in 0..100 {
          if let Some(c) = pool_alloc() {
            chunk_write(&c, 0, i * i);
            sum = sum + chunk_read(&c, 0);
          }   // chunk drops here: returned to the pool
        }
        sum
      |}
  in
  (match Rustlite.Eval.run ~kctx src with
  | Rustlite.Eval.Ret v ->
    Format.printf
      "  100 allocations from a %d-chunk pool, every chunk recycled by RAII: sum=%a@."
      Kernel_sim.Kernel.default_pool_chunks Rustlite.Value.pp v
  | o -> Format.printf "  unexpected: %a@." Rustlite.Eval.pp_outcome o);
  Printf.printf "  leaked chunks after the run: %d (pool available: %d)
"
    (List.length (Kernel_sim.Mempool.leaked world.World.kernel.Kernel_sim.Kernel.pool))
    (Kernel_sim.Mempool.available world.World.kernel.Kernel_sim.Kernel.pool);
  (* MPK ablation: a stray kernel write into extension memory *)
  Printf.printf
    "
protection from unsafe code (MPK-style domains; the §4 open question):
";
  let stray_write ~mpk =
    let kernel = Kernel_sim.Kernel.create () in
    let mem = kernel.Kernel_sim.Kernel.mem in
    let ext = Kernel_sim.Kmem.alloc mem ~size:64 ~kind:"map_value" ~name:"ext" () in
    Kernel_sim.Kmem.set_domain ext ~pkey:1;
    if mpk then Kernel_sim.Kmem.enable_mpk mem;
    match
      Kernel_sim.Kmem.store mem ~size:8 ~addr:ext.Kernel_sim.Kmem.base ~value:0x41L
        ~context:"buggy kernel subsystem"
    with
    | () -> "silent corruption of extension data"
    | exception Kernel_sim.Oops.Kernel_oops r ->
      Format.asprintf "blocked: %a" Kernel_sim.Oops.pp_report r
  in
  print_string
    (Report.table
       ~header:[ "configuration"; "stray helper write into extension memory" ]
       [ [ "MPK disabled (today)"; stray_write ~mpk:false ];
         [ "MPK domains enforced"; stray_write ~mpk:true ] ]);
  Printf.printf
    "paper: \"if we must resort to hardware protection mechanisms, is language\n\
     safety or verification still necessary?\" — the matrix above shows the two\n\
     mechanisms defend against different writers (guest vs host), so they compose.\n"

(* ------------------------------------------------------------------ *)
(* PERF: bechamel microbenchmarks                                      *)
(* ------------------------------------------------------------------ *)

let bechamel_run tests =
  let open Bechamel in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = [ Toolkit.Instance.monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~stabilize:false ()
  in
  let raw = Benchmark.all cfg instances tests in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  Hashtbl.iter
    (fun name ols_result ->
      match Analyze.OLS.estimates ols_result with
      | Some [ est ] -> Printf.printf "  %-34s %12.1f ns/op\n" name est
      | _ -> Printf.printf "  %-34s (no estimate)\n" name)
    results

(* a small ALU-heavy verified program: 64-iteration counted loop *)
let alu_loop_prog =
  let open Ebpf.Asm in
  Ebpf.Program.of_items_exn ~name:"alu_loop" ~prog_type:Ebpf.Program.Kprobe
    [ mov_i r0 0; mov_i r6 64;
      label "loop";
      add_i r0 7; xor_i r0 3; add_i r0 1;
      sub_i r6 1; jne_i r6 0 "loop";
      exit_ ]

let perf () =
  print_string
    (Report.section "PERF: runtime-mechanism overhead (bechamel, ns per operation)");
  let world = World.create_populated () in
  let hctx = World.new_hctx world in
  let ctx =
    Kernel_sim.Kmem.alloc world.World.kernel.Kernel_sim.Kernel.mem ~size:64
      ~kind:"ctx" ~name:"bench_ctx" ()
  in
  let ctx_addr = ctx.Kernel_sim.Kmem.base in
  let jit = Runtime.Jit.compile hctx alu_loop_prog in
  let m =
    World.register_map world
      { Maps.Bpf_map.name = "bench"; kind = Maps.Bpf_map.Array; key_size = 4;
        value_size = 8; max_entries = 16; lock_off = None }
  in
  let key = Bytes.make 4 '\000' in
  let kctx = { Rustlite.Kcrate.hctx; map_ids = [ ("bench", m.Maps.Bpf_map.id) ] } in
  let rl_loop =
    Rustlite.Ast.(
      Let
        { name = "acc"; mut = true; value = Lit_int 0L;
          body =
            Seq
              [ For ("i", Lit_int 0L, Lit_int 64L,
                     Assign ("acc", Binop (Add, Var "acc", Lit_int 7L)));
                Var "acc" ] })
  in
  let open Bechamel in
  bechamel_run
    (Test.make_grouped ~name:"untenable"
       [ Test.make ~name:"interp: 64-iter ALU loop"
           (Staged.stage (fun () ->
                ignore
                  (Runtime.Interp.run ~hctx ~prog:alu_loop_prog ~ctx_addr ())));
         Test.make ~name:"interp+fuel guard: same loop"
           (Staged.stage (fun () ->
                ignore
                  (Runtime.Interp.run ~fuel:100_000L ~hctx ~prog:alu_loop_prog
                     ~ctx_addr ())));
         Test.make ~name:"jit: same loop"
           (Staged.stage (fun () -> ignore (Runtime.Jit.run hctx jit ~ctx_addr)));
         Test.make ~name:"rustlite eval: same loop"
           (Staged.stage (fun () -> ignore (Rustlite.Eval.run ~kctx rl_loop)));
         Test.make ~name:"rustlite eval+fuel: same loop"
           (Staged.stage (fun () ->
                ignore (Rustlite.Eval.run ~fuel:100_000L ~kctx rl_loop)));
         Test.make ~name:"helper: map_lookup_elem"
           (Staged.stage (fun () ->
                ignore (Maps.Bpf_map.lookup m ~key)));
         Test.make ~name:"verifier: 16-branch diamond (pruned)"
           (Staged.stage
              (let prog = diamond_chain_prog 16 in
               fun () -> ignore (verify_stats prog)));
         Test.make ~name:"toolchain: typecheck+own+sign"
           (Staged.stage (fun () ->
                ignore
                  (Rustlite.Toolchain.compile
                     { Rustlite.Toolchain.name = "bench"; maps = []; body = rl_loop })));
         Test.make ~name:"signature validation (load time)"
           (Staged.stage
              (let ext =
                 Result.get_ok
                   (Rustlite.Toolchain.compile
                      { Rustlite.Toolchain.name = "bench"; maps = []; body = rl_loop })
               in
               fun () -> ignore (Rustlite.Toolchain.validate ext))) ])

(* ------------------------------------------------------------------ *)
(* TELEMETRY: instrumentation overhead                                 *)
(* ------------------------------------------------------------------ *)

(* Manual timing loops rather than bechamel: the measurement toggles a global
   flag between the two arms, and bechamel interleaves test quotas in ways
   that make flag scoping fragile. *)
let telemetry ?(smoke = false) () =
  print_string
    (Report.section "TELEMETRY: instrumentation overhead (interpreter hot path)");
  let iters = if smoke then 200 else 400 in
  let world = World.create_populated () in
  let hctx = World.new_hctx world in
  let ctx =
    Kernel_sim.Kmem.alloc world.World.kernel.Kernel_sim.Kernel.mem ~size:64
      ~kind:"ctx" ~name:"bench_ctx" ()
  in
  let ctx_addr = ctx.Kernel_sim.Kmem.base in
  let jit = Runtime.Jit.compile hctx alu_loop_prog in
  let run_interp () =
    ignore (Runtime.Interp.run ~hctx ~prog:alu_loop_prog ~ctx_addr ())
  in
  let run_jit () = ignore (Runtime.Jit.run hctx jit ~ctx_addr) in
  let was_enabled = Telemetry.Registry.enabled () in
  let measure name f =
    (* Interleave the two arms rep by rep so CPU-frequency and GC drift hit
       both equally, and take the min over many short reps — the floor
       estimator.  Timing the arms in separate blocks showed ±6% run-to-run
       swings, larger than the overhead being measured.  The warm-up also
       fills the trace ring once, so the enabled arm is measured in steady
       state (pushes take the drop path and do not allocate) rather than
       paying the one-time ring fill. *)
    let reps = if smoke then 3 else 41 in
    let rep enabled =
      Telemetry.Registry.set_enabled enabled;
      Gc.minor ();
      let t0 = Unix.gettimeofday () in
      for _ = 1 to iters do
        f ()
      done;
      (Unix.gettimeofday () -. t0) *. 1e9 /. float_of_int iters
    in
    Telemetry.Registry.reset ();
    ignore (rep true);
    ignore (rep false);
    ignore (rep true);
    let off = ref infinity and on_ = ref infinity in
    for _ = 1 to reps do
      off := Float.min !off (rep false);
      on_ := Float.min !on_ (rep true)
    done;
    let off = !off and on_ = !on_ in
    let overhead = (on_ -. off) /. off *. 100. in
    Printf.printf "  %-28s no-op sink %10.1f ns/run   enabled %10.1f ns/run   overhead %+.1f%%\n"
      name off on_ overhead;
    overhead
  in
  let interp_overhead = measure "interp: 64-iter ALU loop" run_interp in
  let _jit_overhead = measure "jit: same loop" run_jit in
  Printf.printf "  target: <5%% on the interpreter hot path — %s (%+.1f%%)\n"
    (if interp_overhead < 5. then "MET" else "MISSED")
    interp_overhead;
  let s = Telemetry.Registry.snapshot () in
  let nonzero = List.length (List.filter (fun (_, v) -> v <> 0) s.Telemetry.Registry.counters) in
  Printf.printf "  (enabled arm left %d nonzero counters, %d trace events retained, %d dropped)\n"
    nonzero (List.length s.Telemetry.Registry.events) s.Telemetry.Registry.dropped_events;
  Telemetry.Registry.set_enabled was_enabled

(* ------------------------------------------------------------------ *)
(* PROFILE: sampling-profiler overhead                                 *)
(* ------------------------------------------------------------------ *)

(* Same interleaved min-floor harness as the telemetry experiment, with
   telemetry enabled in every arm (the sampler requires it).  Three arms
   rep by rep: sampling off measured twice — the delta between the two
   identical replicates is the noise floor, which is what "no measurable
   overhead disabled" is measured against (the disabled path is one
   always-false compare per instruction) — and sampling on, whose delta
   over the off arm is the <5% acceptance. *)
let profile_exp ?(smoke = false) () =
  print_string
    (Report.section "PROFILE: Vclock sampling-profiler overhead (interp + jit)");
  let iters = if smoke then 200 else 400 in
  let period = 5000L in
  let world = World.create_populated () in
  let hctx = World.new_hctx world in
  let ctx =
    Kernel_sim.Kmem.alloc world.World.kernel.Kernel_sim.Kernel.mem ~size:64
      ~kind:"ctx" ~name:"bench_ctx" ()
  in
  let ctx_addr = ctx.Kernel_sim.Kmem.base in
  let jit = Runtime.Jit.compile hctx alu_loop_prog in
  let run_interp () =
    ignore (Runtime.Interp.run ~hctx ~prog:alu_loop_prog ~ctx_addr ())
  in
  let run_jit () = ignore (Runtime.Jit.run hctx jit ~ctx_addr) in
  let was_enabled = Telemetry.Registry.enabled () in
  Telemetry.Registry.set_enabled true;
  let reps = if smoke then 3 else 41 in
  let measure name f =
    let rep sampling =
      Telemetry.Profiler.set_period (if sampling then period else 0L);
      Gc.minor ();
      let t0 = Unix.gettimeofday () in
      for _ = 1 to iters do
        f ()
      done;
      Telemetry.Profiler.set_period 0L;
      (Unix.gettimeofday () -. t0) *. 1e9 /. float_of_int iters
    in
    Telemetry.Registry.reset ();
    ignore (rep true);
    ignore (rep false);
    ignore (rep true);
    let off1 = ref infinity and off2 = ref infinity and on_ = ref infinity in
    for _ = 1 to reps do
      off1 := Float.min !off1 (rep false);
      on_ := Float.min !on_ (rep true);
      off2 := Float.min !off2 (rep false)
    done;
    let off = Float.min !off1 !off2 in
    let noise = Float.abs (!off1 -. !off2) /. off *. 100. in
    let overhead = (!on_ -. off) /. off *. 100. in
    Printf.printf
      "  %-26s sampling off %8.1f ns/run   on %8.1f ns/run   overhead %+.1f%%  \
       (replicate delta %.1f%% = noise floor)\n"
      name off !on_ overhead noise;
    overhead
  in
  let interp_overhead = measure "interp: 64-iter ALU loop" run_interp in
  let _jit_overhead = measure "jit: same loop" run_jit in
  Printf.printf "  samples taken while armed: %d (period %Ldns, vclock-driven)\n"
    (Telemetry.Profiler.total ()) period;
  (match Telemetry.Profiler.sample_list () with
  | (stack, n) :: _ -> Printf.printf "  hottest stack: %s (%d samples)\n" stack n
  | [] -> ());
  (* The full run has enough replicates to resolve the real target; the
     3-rep smoke run only has the statistical power to bound the ratio. *)
  (if smoke then
     Printf.printf
       "  smoke bound: sampling-on/off ratio below 2.0x — %s (%.2fx); see \
        `bench -- profile` for the <5%% measurement\n"
       (if interp_overhead < 100. then "MET" else "MISSED")
       (1. +. (interp_overhead /. 100.))
   else
     Printf.printf
       "  target: sampling enabled <5%% on the interpreter hot path — %s \
        (%+.1f%%); disabled cost sits below the replicate noise floor\n"
       (if interp_overhead < 5. then "MET" else "MISSED")
       interp_overhead);
  Telemetry.Profiler.reset ();
  Telemetry.Registry.set_enabled was_enabled

(* ------------------------------------------------------------------ *)
(* THROUGHPUT: the serving path — verdict cache + dispatch engine      *)
(* ------------------------------------------------------------------ *)

(* The paper's load-path cost (§2.1) is per *load*; a kernel under heavy
   extension traffic amortises it.  Part 1 measures what the
   content-addressed verdict cache buys on repeat loads of one
   expensive-to-verify image; part 2 drives a synthetic packet stream
   through several attached filters with the pooled dispatch engine and
   checks the run is deterministic. *)
let throughput ?(smoke = false) () =
  print_string
    (Report.section
       "THROUGHPUT: content-addressed verdict cache and the dispatch engine");
  (* -- part 1: repeat loads of one expensive-to-verify image -- *)
  let n = if smoke then 10 else 14 in
  let prog = unprunable_prog n in
  let loads = if smoke then 5 else 25 in
  let time_repeat ~use_cache =
    let world = World.create_populated () in
    (match Framework.Pipeline.load_ebpf ~use_cache world prog with
    | Ok _ -> ()
    | Error e -> failwith (Format.asprintf "%a" Framework.Pipeline.pp_error e));
    let t0 = Unix.gettimeofday () in
    for _ = 1 to loads do
      ignore (Framework.Pipeline.load_ebpf ~use_cache world prog)
    done;
    ((Unix.gettimeofday () -. t0) /. float_of_int loads, world)
  in
  let uncached, _ = time_repeat ~use_cache:false in
  let cached, cworld = time_repeat ~use_cache:true in
  let speedup = uncached /. Float.max cached 1e-9 in
  Printf.printf
    "  repeat loads of %s (%d insns, pruning-defeating):\n\
    \    uncached %8.3f ms/load\n\
    \    cached   %8.4f ms/load  (%.0fx; world cache: %d hits %d misses %d entries)\n"
    prog.Ebpf.Program.name (Ebpf.Program.length prog) (uncached *. 1000.)
    (cached *. 1000.) speedup
    (Framework.Verdict_cache.hits cworld.World.vcache)
    (Framework.Verdict_cache.misses cworld.World.vcache)
    (Framework.Verdict_cache.size cworld.World.vcache);
  Printf.printf "  acceptance: cache-hit repeat load >=10x faster — %s\n\n"
    (if speedup >= 10. then "MET" else "MISSED");
  (* -- part 2: a packet stream through several attached filters -- *)
  let build_engine () =
    let world = World.create_populated () in
    let engine = Framework.Serve.create world in
    let open Ebpf.Asm in
    let h = Helpers.Registry.id_of_name in
    let filter name items =
      Ebpf.Program.of_items_exn ~name ~prog_type:Ebpf.Program.Socket_filter items
    in
    let filters =
      [ filter "len" [ ldxw r0 r1 0; exit_ ];
        filter "parity" [ ldxw r6 r1 0; mov_r r0 r6; and_i r0 1; exit_ ];
        (* payload-dependent: return the big-endian u16 at offset 16 *)
        filter "port"
          [ stdw r10 (-8) 0; mov_i r1 16; mov_r r2 r10; add_i r2 (-8);
            mov_i r3 2; call (h "bpf_skb_load_bytes"); ldxb r6 r10 (-8);
            lsh_i r6 8; ldxb r7 r10 (-7); or_r r6 r7; mov_r r0 r6; exit_ ] ]
    in
    List.iter
      (fun p ->
        match Framework.Pipeline.load_ebpf engine.Framework.Serve.world p with
        | Ok loaded ->
          ignore
            (Framework.Attach.attach engine.Framework.Serve.attach ~hook:"xdp"
               loaded)
        | Error e -> failwith (Format.asprintf "%a" Framework.Pipeline.pp_error e))
      filters;
    engine
  in
  let count = if smoke then 500 else 10_000 in
  let engine = build_engine () in
  let stats =
    (Serve.run engine (Serve.plan ~size:64 ~hook:"xdp" ~count ())).Serve.totals
  in
  Printf.printf "  dispatch %d events x %d attached filters:\n    %s\n" count
    (Framework.Attach.count engine.Framework.Serve.attach)
    (Format.asprintf "%a" Serve.pp_totals stats);
  (* determinism: a second engine, same seed, must match checksum-for-checksum *)
  let stats' =
    (Serve.run (build_engine ()) (Serve.plan ~size:64 ~hook:"xdp" ~count ()))
      .Serve.totals
  in
  Printf.printf "  deterministic replay (fresh world, same seed): %s\n"
    (if
       Int64.equal stats.Serve.ret_checksum stats'.Serve.ret_checksum
       && stats.Serve.invocations = stats'.Serve.invocations
     then "MATCH"
     else "MISMATCH");
  let cval name = Telemetry.Counter.value (Telemetry.Registry.counter name) in
  Printf.printf
    "  counters: pipeline.cache_hits=%d pipeline.cache_misses=%d \
     dispatch.events=%d dispatch.events_per_sec=%d\n"
    (cval "pipeline.cache_hits") (cval "pipeline.cache_misses")
    (cval "dispatch.events") (cval "dispatch.events_per_sec")

(* ------------------------------------------------------------------ *)
(* CHAOS: supervised dispatch under deterministic fault injection      *)
(* ------------------------------------------------------------------ *)

(* The §3 position made operational: what the verifier cannot promise, the
   serving path must absorb.  Part 1 attaches a verifier-accepted crasher
   (the §2.2 probe-read vehicle, bug armed) next to healthy filters and
   shows the supervised engine quarantining it while every event is still
   served.  Part 2 measures what chaos injection costs: the same healthy
   population with and without a 1% deterministic fault schedule, compared
   by throughput. *)
let chaos_exp ?(smoke = false) () =
  let module Chaos = Framework.Chaos in
  let module Supervisor = Framework.Supervisor in
  let module Attach = Framework.Attach in
  print_string
    (Report.section
       "CHAOS: supervised dispatch under deterministic fault injection");
  let open Ebpf.Asm in
  let h = Helpers.Registry.id_of_name in
  let load world name ~prog_type items =
    match
      Pipeline.load_ebpf world
        (Ebpf.Program.of_items_exn ~name ~prog_type items)
    with
    | Ok loaded -> loaded
    | Error e -> failwith (Format.asprintf "%a" Pipeline.pp_error e)
  in
  let build ?policy ~crasher () =
    let world = World.create_populated () in
    let engine = Serve.create ?policy world in
    if crasher then begin
      Helpers.Bugdb.force_on world.World.bugs "hbug:probe-read-size-unchecked";
      ignore
        (Attach.attach engine.Serve.attach ~hook:"xdp"
           (load world "crasher" ~prog_type:Ebpf.Program.Kprobe
              [ call (h "bpf_get_current_task"); mov_r r3 r0; mov_r r1 r10;
                add_i r1 (-16); mov_i r2 16; call (h "bpf_probe_read_kernel");
                mov_i r0 0; exit_ ]))
    end;
    List.iter
      (fun (name, items) ->
        ignore
          (Attach.attach engine.Serve.attach ~hook:"xdp"
             (load world name ~prog_type:Ebpf.Program.Socket_filter items)))
      [ ("len", [ ldxw r0 r1 0; exit_ ]);
        ("parity", [ ldxw r6 r1 0; mov_r r0 r6; and_i r0 1; exit_ ]);
        ("mask", [ ldxw r6 r1 0; mov_r r0 r6; and_i r0 255; exit_ ]) ]
    ;
    engine
  in
  let run ?chaos ~count engine =
    Serve.run engine (Serve.plan ?chaos ~size:64 ~hook:"xdp" ~count ())
  in
  let eps (s : Serve.stats) = s.Serve.totals.Serve.events_per_sec in
  (* -- part 1: a crasher in the population, supervised -- *)
  let count1 = if smoke then 300 else 3_000 in
  let sup_config =
    { Supervisor.default_config with
      Supervisor.cooldown_ns = 100L (* expire within a few events *);
      max_cooldown_ns = 1_000L }
  in
  let engine = build ~policy:(Serve.Supervise sup_config) ~crasher:true () in
  let r = run ~count:count1 engine in
  Printf.printf
    "  crasher + 3 healthy filters, Supervise policy, %d events:\n    %s\n"
    count1
    (Format.asprintf "%a" Serve.pp_stats r);
  List.iter
    (fun h -> Format.printf "%a@." Supervisor.pp_health h)
    r.Serve.per_ext;
  Printf.printf "  acceptance: every event served, offender quarantined — %s\n\n"
    (if
       r.Serve.totals.Serve.events = count1
       && r.Serve.totals.Serve.quarantined = 1
     then "MET"
     else "MISSED");
  (* -- part 2: throughput cost of a 1% chaos schedule -- *)
  let count2 = if smoke then 5_000 else 20_000 in
  let chaos = Chaos.default_config (* 1% fault rate *) in
  ignore (run ~count:(count2 / 10) (build ~crasher:false ())) (* warm up *);
  (* wall-clock rates are noisy at smoke sizes: take the best of [reps]
     runs of each configuration (the schedule is deterministic, so every
     rep serves the identical stream) *)
  let reps = if smoke then 3 else 2 in
  let best ?chaos () =
    List.fold_left
      (fun acc r -> if eps r > eps acc then r else acc)
      (run ?chaos ~count:count2 (build ~crasher:false ()))
      (List.init (reps - 1) (fun _ ->
           run ?chaos ~count:count2 (build ~crasher:false ())))
  in
  let base = best () in
  let noisy = best ~chaos () in
  let degradation = (eps base -. eps noisy) /. eps base *. 100. in
  Printf.printf
    "  healthy population, %d events, chaos fault rate %.1f%% (%d planned):\n\
    \    calm  %s\n\
    \    chaos %s\n\
    \    degradation %.1f%%\n"
    count2
    (chaos.Chaos.fault_rate *. 100.)
    (Chaos.planned chaos ~count:count2)
    (Format.asprintf "%a" Serve.pp_stats base)
    (Format.asprintf "%a" Serve.pp_stats noisy)
    degradation;
  Printf.printf
    "  acceptance: <15%% throughput degradation at 1%% fault rate — %s\n"
    (if degradation < 15. then "MET" else "MISSED")

(* ------------------------------------------------------------------ *)
(* ELISION: what the redundant-guard pass buys the serving path        *)
(* ------------------------------------------------------------------ *)

(* A guard-heavy filter: a chain of constant bounds checks the elide pass
   resolves statically, in front of a small amount of real packet work.
   The same loaded handle is invoked with elision honoured and with every
   guard evaluated dynamically; fuel and virtual clock charge identically
   either way (an elided guard still retires), so the delta is pure
   host-side dispatch cost — the honest analogue of compiling checks
   out. *)
let elision_exp ?(smoke = false) () =
  print_string
    (Report.section "ELISION: redundant-guard elision on the serving path");
  let guards = 48 in
  let open Ebpf.Asm in
  let prog =
    Ebpf.Program.of_items_exn ~name:"guard-heavy"
      ~prog_type:Ebpf.Program.Socket_filter
      ([ mov_i r6 4 ]
      @ List.concat
          (List.init guards (fun i ->
               [ jgt_i r6 (10 + (i mod 7)) "drop" ]))
      @ [ ldxw r0 r1 0; and_i r0 0xff; exit_; label "drop"; mov_i r0 0;
          exit_ ])
  in
  let world = World.create_populated () in
  let loaded =
    match Pipeline.load_ebpf world prog with
    | Ok l -> l
    | Error e -> failwith (Format.asprintf "%a" Pipeline.pp_error e)
  in
  (match loaded with
  | Pipeline.Ebpf_prog { analysis = Some a; _ } ->
    Printf.printf "  %s: %d insns, %d of %d guards elided statically\n"
      prog.Ebpf.Program.name (Ebpf.Program.length prog) a.Analysis.Driver.elided
      guards
  | _ -> failwith "analysis stage did not run");
  let ictx = Invoke.create world in
  let payload = Bytes.make 64 '\x2a' in
  let count = if smoke then 3_000 else 100_000 in
  let reps = if smoke then 3 else 2 in
  let rate ~use_jit ~use_elision =
    let opts =
      { Invoke.default_opts with
        skb_payload = Some payload; use_jit; use_elision }
    in
    let once () =
      let t0 = Unix.gettimeofday () in
      for _ = 1 to count do
        ignore (Invoke.run ~opts ~ictx world loaded)
      done;
      float_of_int count /. (Unix.gettimeofday () -. t0)
    in
    ignore (once ()) (* warm up *);
    List.fold_left (fun acc _ -> Float.max acc (once ())) (once ())
      (List.init (reps - 1) Fun.id)
  in
  let line engine ~use_jit =
    let off = rate ~use_jit ~use_elision:false in
    let on = rate ~use_jit ~use_elision:true in
    Printf.printf
      "  %-6s %d invocations: guards dynamic %9.0f/s, elided %9.0f/s  \
       (%+.1f%%)\n"
      engine count off on
      ((on -. off) /. off *. 100.);
    (off, on)
  in
  let ioff, ion = line "interp" ~use_jit:false in
  ignore (line "jit" ~use_jit:true);
  (* the acceptance bar is interp throughput: elision must never cost *)
  Printf.printf
    "  acceptance: interp throughput with elision >= without — %s\n"
    (if ion >= ioff *. 0.98 then "MET" else "MISSED")

(* ------------------------------------------------------------------ *)
(* BOUND: static cost bounds and fuel-check batching                   *)
(* ------------------------------------------------------------------ *)

(* The bound pass's hot-path payoff, measured: a loop-heavy program the
   pass proves Bounded serves under a fuel guard with the per-insn fuel
   check hoisted to straight-line-window entry.  Fuel is still charged
   per retired instruction, so outcomes and retired counts must be
   bit-identical with batching on or off — asserted below before the
   throughput legs. *)
let bound_exp ?(smoke = false) () =
  print_string
    (Report.section "BOUND: static cost bounds and fuel-check batching");
  let open Ebpf.Asm in
  let body =
    List.concat
      (List.init 8 (fun _ -> [ add_i r0 7; xor_i r0 3; add_i r0 1 ]))
  in
  let prog =
    Ebpf.Program.of_items_exn ~name:"alu-loop-heavy"
      ~prog_type:Ebpf.Program.Socket_filter
      ([ mov_i r0 0; mov_i r6 32; label "loop" ]
      @ body
      @ [ sub_i r6 1; jne_i r6 0 "loop"; exit_ ])
  in
  let world = World.create_populated () in
  let loaded =
    match Pipeline.load_ebpf world prog with
    | Ok l -> l
    | Error e -> failwith (Format.asprintf "%a" Pipeline.pp_error e)
  in
  (match loaded with
  | Pipeline.Ebpf_prog { analysis = Some a; _ } -> (
    match a.Analysis.Driver.cost with
    | Some c ->
      Format.printf "  %s: %d insns, static bound %a@." prog.Ebpf.Program.name
        (Ebpf.Program.length prog) Analysis.Bound_pass.pp_bound
        c.Analysis.Bound_pass.bound
    | None -> failwith "bound pass did not run")
  | _ -> failwith "analysis stage did not run");
  let ictx = Invoke.create world in
  let payload = Bytes.make 64 '\x2a' in
  let opts_of ~use_jit ~use_bound_batching =
    { Invoke.default_opts with
      skb_payload = Some payload; fuel = Some 100_000L; use_jit;
      use_bound_batching }
  in
  (* identity: batching must not change the outcome or the retired count *)
  List.iter
    (fun use_jit ->
      let once b =
        let r =
          Invoke.run ~opts:(opts_of ~use_jit ~use_bound_batching:b) ~ictx
            world loaded
        in
        (r.Invoke.outcome, r.Invoke.insns_retired)
      in
      if once true <> once false then
        failwith "fuel-check batching changed an outcome or retired count")
    [ false; true ];
  let count = if smoke then 2_000 else 50_000 in
  let reps = if smoke then 3 else 2 in
  let rate ~use_jit ~use_bound_batching =
    let opts = opts_of ~use_jit ~use_bound_batching in
    let once () =
      let t0 = Unix.gettimeofday () in
      for _ = 1 to count do
        ignore (Invoke.run ~opts ~ictx world loaded)
      done;
      float_of_int count /. (Unix.gettimeofday () -. t0)
    in
    ignore (once ()) (* warm up *);
    List.fold_left (fun acc _ -> Float.max acc (once ())) (once ())
      (List.init (reps - 1) Fun.id)
  in
  let line engine ~use_jit =
    let off = rate ~use_jit ~use_bound_batching:false in
    let on = rate ~use_jit ~use_bound_batching:true in
    Printf.printf
      "  %-6s %d invocations: fuel checked per-insn %9.0f/s, batched \
       %9.0f/s  (%+.1f%%)\n"
      engine count off on
      ((on -. off) /. off *. 100.);
    (off, on)
  in
  let ioff, ion = line "interp" ~use_jit:false in
  ignore (line "jit" ~use_jit:true);
  Printf.printf
    "  acceptance: interp hot path with batching >= 5%% faster — %s\n"
    (if ion >= ioff *. 1.05 then "MET" else "MISSED")

(* ------------------------------------------------------------------ *)
(* RELOAD: epoch swaps under live dispatch                             *)
(* ------------------------------------------------------------------ *)

(* The serving core's hot-reload claim, measured.  An epoch swap is one
   pointer publish, so a stream that reloads mid-flight should serve at
   the same rate as one that never does.  Part 1 drives a scripted
   reload schedule through a live stream and reports swap latency, grace
   periods and the transition log; part 2 compares throughput at 0, 1
   and 1-per-10k reloads (the acceptance bar: 1 reload per 10k events
   costs < 5%). *)
let reload_exp ?(smoke = false) () =
  let module Attach = Framework.Attach in
  let module Epoch = Framework.Epoch in
  print_string (Report.section "RELOAD: epoch swaps under live dispatch");
  let open Ebpf.Asm in
  let h = Helpers.Registry.id_of_name in
  let load world name ~prog_type items =
    match
      Pipeline.load_ebpf world (Ebpf.Program.of_items_exn ~name ~prog_type items)
    with
    | Ok l -> l
    | Error e -> failwith (Format.asprintf "%a" Pipeline.pp_error e)
  in
  let prog_id = function
    | Pipeline.Ebpf_prog { prog_id; _ } -> prog_id
    | Pipeline.Rustlite_ext _ -> assert false
  in
  (* a tail-calling caller plus two switchable targets: each reload
     rewires slot 0, so every swap has a per-event observable effect *)
  let build () =
    let world = World.create_populated () in
    let engine = Framework.Serve.create world in
    let b1 =
      prog_id (load world "b1" ~prog_type:Ebpf.Program.Kprobe [ mov_i r0 55; exit_ ])
    in
    let b2 =
      prog_id (load world "b2" ~prog_type:Ebpf.Program.Kprobe [ mov_i r0 77; exit_ ])
    in
    World.set_tail_call world ~index:0 ~prog_id:b1;
    ignore
      (Attach.attach engine.Serve.attach ~hook:"xdp"
         (load world "caller" ~prog_type:Ebpf.Program.Kprobe
            [ mov_r r1 r1; mov_i r2 0; mov_i r3 0; call (h "bpf_tail_call");
              mov_i r0 1; exit_ ]));
    ignore
      (Attach.attach engine.Serve.attach ~hook:"xdp"
         (load world "len" ~prog_type:Ebpf.Program.Socket_filter
            [ ldxw r0 r1 0; exit_ ]));
    (engine, b1, b2)
  in
  let schedule ~count ~reloads (b1, b2) =
    List.init reloads (fun k ->
        ( (k + 1) * count / (reloads + 1),
          fun _e b ->
            Epoch.set_tail_call b ~index:0
              ~prog_id:(if k mod 2 = 0 then b2 else b1) ))
  in
  (* -- part 1: a scripted schedule; swap latency and grace periods -- *)
  let count1 = if smoke then 2_000 else 20_000 in
  let engine, b1, b2 = build () in
  let world = engine.Serve.world in
  let reload = schedule ~count:count1 ~reloads:4 (b1, b2) in
  let r =
    Serve.run engine
      (Serve.plan ~size:64 ~reloads:reload ~hook:"xdp" ~count:count1 ())
  in
  Printf.printf "  scripted stream, %d events, %d reloads applied:\n    %s\n"
    count1 r.Serve.totals.Serve.reloads
    (Format.asprintf "%a" Serve.pp_stats r);
  Printf.printf "  events per epoch: %s\n"
    (String.concat "  "
       (List.map
          (fun (e, n) -> Printf.sprintf "e%d:%d" e n)
          r.Serve.totals.Serve.per_epoch));
  Printf.printf "  transition log:\n";
  List.iter
    (fun tr -> Printf.printf "    %s\n" (Format.asprintf "%a" Epoch.pp_transition tr))
    (Epoch.transitions world.World.epochs);
  let swap = Telemetry.Registry.histogram "epoch.swap_ns" in
  let grace = Telemetry.Registry.histogram "epoch.grace_ns" in
  Printf.printf "  swap latency (host ns):    count=%d mean=%.0f p99=%Ld max=%Ld\n"
    (Telemetry.Histogram.count swap)
    (Telemetry.Histogram.mean swap)
    (Telemetry.Histogram.quantile swap 0.99)
    (Telemetry.Histogram.max_value swap);
  Printf.printf
    "  grace periods (vclock ns): count=%d mean=%.0f max=%Ld (pending %d)\n\n"
    (Telemetry.Histogram.count grace)
    (Telemetry.Histogram.mean grace)
    (Telemetry.Histogram.max_value grace)
    (Epoch.grace_pending world.World.epochs);
  (* -- part 2: throughput at 0 / 1 / 1-per-10k reloads -- *)
  let count2 = if smoke then 10_000 else 100_000 in
  let reps = if smoke then 3 else 5 in
  let rate ~reloads =
    let once () =
      let engine, b1, b2 = build () in
      let reload = schedule ~count:count2 ~reloads (b1, b2) in
      (Serve.run engine
         (Serve.plan ~size:64 ~reloads:reload ~hook:"xdp" ~count:count2 ()))
        .Serve.totals.Serve.events_per_sec
    in
    ignore (once ()) (* warm up *);
    List.fold_left
      (fun acc _ -> Float.max acc (once ()))
      (once ())
      (List.init (reps - 1) Fun.id)
  in
  let dense_n = max 1 (count2 / 10_000) in
  let base = rate ~reloads:0 in
  let one = rate ~reloads:1 in
  let dense = if dense_n = 1 then one else rate ~reloads:dense_n in
  let pct x = (x -. base) /. base *. 100. in
  Printf.printf
    "  throughput, %d events:\n\
    \    0 reloads  %9.0f ev/s\n\
    \    1 reload   %9.0f ev/s (%+.1f%%)\n\
    \    %d reloads %9.0f ev/s (%+.1f%%)\n"
    count2 base one (pct one) dense_n dense (pct dense);
  let degradation = -.pct dense in
  Printf.printf
    "  acceptance: 1 reload per 10k events costs < 5%% throughput — %s (%.1f%%)\n"
    (if degradation < 5. then "MET" else "MISSED")
    degradation;
  degradation < 5.

(* The CI smoke: the reduced run above, plus hard assertions — a seeded
   mid-stream swap must be byte-identical to stopping the world at the
   same boundary (no torn reads), and every superseded epoch must have
   quiesced by the time the stream ends. *)
let reload_smoke () =
  let module Attach = Framework.Attach in
  let module Epoch = Framework.Epoch in
  ignore (reload_exp ~smoke:true ());
  let open Ebpf.Asm in
  let h = Helpers.Registry.id_of_name in
  let build () =
    let world = World.create_populated () in
    let engine = Framework.Serve.create world in
    let load name ~prog_type items =
      match
        Pipeline.load_ebpf world
          (Ebpf.Program.of_items_exn ~name ~prog_type items)
      with
      | Ok l -> l
      | Error e -> failwith (Format.asprintf "%a" Pipeline.pp_error e)
    in
    let b1 =
      match load "b1" ~prog_type:Ebpf.Program.Kprobe [ mov_i r0 55; exit_ ] with
      | Pipeline.Ebpf_prog { prog_id; _ } -> prog_id
      | _ -> assert false
    in
    let b2 =
      match load "b2" ~prog_type:Ebpf.Program.Kprobe [ mov_i r0 77; exit_ ] with
      | Pipeline.Ebpf_prog { prog_id; _ } -> prog_id
      | _ -> assert false
    in
    World.set_tail_call world ~index:0 ~prog_id:b1;
    ignore
      (Attach.attach engine.Serve.attach ~hook:"xdp"
         (load "caller" ~prog_type:Ebpf.Program.Kprobe
            [ mov_r r1 r1; mov_i r2 0; mov_i r3 0; call (h "bpf_tail_call");
              mov_i r0 1; exit_ ]));
    (engine, b2)
  in
  let count = 1_000 and boundary = 500 in
  (* live: one epoch swap in the middle of the stream *)
  let engine, b2 = build () in
  let live =
    Serve.run engine
      (Serve.plan
         ~reloads:
           [ (boundary, fun _e b -> Epoch.set_tail_call b ~index:0 ~prog_id:b2) ]
         ~record_checksums:true ~size:64 ~hook:"xdp" ~count ())
  in
  (* oracle: same world shape, stream stopped at the boundary, the same
     change published stop-the-world, stream resumed.  The generator is
     shared so both halves draw the same xorshift sequence. *)
  let engine2, b2' = build () in
  let g = Serve.synthetic_packets ~size:64 () in
  let first =
    Serve.run engine2
      (Serve.plan ~gen:g ~record_checksums:true ~hook:"xdp" ~count:boundary ())
  in
  World.set_tail_call engine2.Serve.world ~index:0 ~prog_id:b2';
  let second =
    Serve.run engine2
      (Serve.plan
         ~gen:(fun i -> g (i + boundary))
         ~record_checksums:true ~hook:"xdp"
         ~count:(count - boundary) ())
  in
  let oracle =
    Array.append first.Serve.event_checksums second.Serve.event_checksums
  in
  let fail msg =
    Printf.eprintf "reload-smoke: FAILED — %s\n" msg;
    exit 1
  in
  if live.Serve.totals.Serve.reloads <> 1 then
    fail "expected exactly one applied reload";
  if live.Serve.event_checksums <> oracle then
    fail "torn read: live swap diverged from the stop-the-world oracle";
  if Epoch.grace_pending engine.Serve.world.World.epochs <> 0 then
    fail "superseded epoch still pending after the stream quiesced";
  if List.length live.Serve.totals.Serve.per_epoch <> 2 then
    fail "expected the stream to span exactly two epochs";
  Printf.printf
    "reload-smoke: OK — %d events, swap at %d, checksums match the \
     stop-the-world oracle, all epochs quiesced\n"
    count boundary

(* ------------------------------------------------------------------ *)
(* PARALLEL: sharded serving over epoch snapshots                      *)
(* ------------------------------------------------------------------ *)

(* The Serve plan API measured at 1, 2, 4 and 8 domains over the same
   seeded stream.  Every sharded run must reconstruct the sequential
   run's checksum exactly, event for event (the determinism oracle) —
   that gate is unconditional.  The speedup column is honest wall clock,
   so the >= 2.5x-at-4-domains acceptance bar is only judged when the
   host actually has 4 cores to run on; on smaller hosts it reports
   SKIPPED with the core count. *)

let parallel_engine () =
  let world = World.create_populated () in
  let engine = Framework.Serve.create world in
  let open Ebpf.Asm in
  let h = Helpers.Registry.id_of_name in
  let filter name items =
    Ebpf.Program.of_items_exn ~name ~prog_type:Ebpf.Program.Socket_filter items
  in
  List.iter
    (fun p ->
      match Framework.Pipeline.load_ebpf world p with
      | Ok loaded ->
        ignore (Framework.Attach.attach engine.Framework.Serve.attach ~hook:"xdp" loaded)
      | Error e -> failwith (Format.asprintf "%a" Framework.Pipeline.pp_error e))
    [ filter "len" [ ldxw r0 r1 0; exit_ ];
      filter "parity" [ ldxw r6 r1 0; mov_r r0 r6; and_i r0 1; exit_ ];
      filter "port"
        [ stdw r10 (-8) 0; mov_i r1 16; mov_r r2 r10; add_i r2 (-8);
          mov_i r3 2; call (h "bpf_skb_load_bytes"); ldxb r6 r10 (-8);
          lsh_i r6 8; ldxb r7 r10 (-7); or_r r6 r7; mov_r r0 r6; exit_ ] ];
  engine

(* One mid-stream hot reload both legs of every comparison share: stage a
   fresh filter on the epoch builder and attach it, so the sharded path
   exercises segment capture, snapshot retention and the swap publish. *)
let parallel_reload k (e : Serve.engine) b =
  let name = Printf.sprintf "hot%d" k in
  let prog =
    Ebpf.Asm.(
      Ebpf.Program.of_items_exn ~name ~prog_type:Ebpf.Program.Socket_filter
        [ mov_i r0 (200 + k); exit_ ])
  in
  match Framework.Pipeline.load_ebpf ~into:b e.Serve.world prog with
  | Ok loaded -> ignore (Framework.Attach.attach e.Serve.attach ~hook:"xdp" loaded)
  | Error err -> failwith (Format.asprintf "%a" Framework.Pipeline.pp_error err)

let parallel_exp ?(smoke = false) () =
  print_string (Report.section "PARALLEL: sharded serving over epoch snapshots");
  let count = if smoke then 2_000 else 50_000 in
  let reloads = [ (count / 2, parallel_reload 0) ] in
  let run ~domains =
    let engine = parallel_engine () in
    let plan =
      Serve.plan ~size:64 ~domains ~reloads ~record_checksums:true ~hook:"xdp"
        ~count ()
    in
    if domains = 1 then Serve.run engine plan else Serve.sharded engine plan
  in
  let seq = run ~domains:1 in
  let seq_rate = seq.Serve.totals.Serve.events_per_sec in
  Printf.printf "  %d events x %d filters, one mid-stream reload:\n" count 3;
  let speedups =
    List.map
      (fun domains ->
        let r = if domains = 1 then seq else run ~domains in
        let ok =
          Int64.equal r.Serve.totals.Serve.ret_checksum
            seq.Serve.totals.Serve.ret_checksum
          && r.Serve.event_checksums = seq.Serve.event_checksums
        in
        if not ok then begin
          Printf.eprintf
            "parallel: FAILED — %d-domain run diverged from the sequential \
             checksum\n"
            domains;
          exit 1
        end;
        let rate = r.Serve.totals.Serve.events_per_sec in
        let speedup = rate /. seq_rate in
        Printf.printf "    %d domain%s %9.0f ev/s  %.2fx%s\n" domains
          (if domains = 1 then " " else "s")
          rate speedup
          (if domains = 1 then " (sequential baseline)"
           else "  checksum MATCH");
        (domains, speedup))
      [ 1; 2; 4; 8 ]
  in
  let cores = Domain.recommended_domain_count () in
  let at4 = List.assoc 4 speedups in
  if cores >= 4 then
    Printf.printf "  acceptance: >= 2.5x speedup at 4 domains — %s (%.2fx)\n"
      (if at4 >= 2.5 then "MET" else "MISSED")
      at4
  else
    Printf.printf
      "  acceptance: >= 2.5x speedup at 4 domains — SKIPPED (host has %d \
       core%s; determinism oracle still enforced)\n"
      cores
      (if cores = 1 then "" else "s")

(* The CI smoke: a 4-domain sharded run (forced through the coordinator,
   queues, shard worlds and checksum reconstruction) must agree with the
   sequential loop event for event, with and without a mid-stream
   reload. *)
let parallel_smoke () =
  let count = 1_500 in
  let fail msg =
    Printf.eprintf "parallel-smoke: FAILED — %s\n" msg;
    exit 1
  in
  let leg ~reloads label =
    let seq =
      Serve.run (parallel_engine ())
        (Serve.plan ~size:64 ~reloads ~record_checksums:true ~hook:"xdp" ~count ())
    in
    let par =
      Serve.sharded (parallel_engine ())
        (Serve.plan ~size:64 ~domains:4 ~reloads ~record_checksums:true
           ~hook:"xdp" ~count ())
    in
    if par.Serve.totals.Serve.events <> count then
      fail (label ^ ": sharded run lost events");
    if
      not
        (Int64.equal seq.Serve.totals.Serve.ret_checksum
           par.Serve.totals.Serve.ret_checksum)
    then fail (label ^ ": stream checksum diverged");
    if seq.Serve.event_checksums <> par.Serve.event_checksums then
      fail (label ^ ": per-event checksums diverged");
    if par.Serve.totals.Serve.reloads <> List.length reloads then
      fail (label ^ ": reload count wrong")
  in
  leg ~reloads:[] "calm";
  leg ~reloads:[ (count / 3, parallel_reload 0); (2 * count / 3, parallel_reload 1) ]
    "reloading";
  Printf.printf
    "parallel-smoke: OK — 4-domain sharded serving matches the sequential \
     loop event for event (calm and mid-stream-reload legs)\n"

(* ------------------------------------------------------------------ *)
(* Differential fuzzing: generator throughput and oracle conformance   *)
(* ------------------------------------------------------------------ *)

(* The seeded generator swept through the oracle's execution-mode matrix:
   programs/sec (each program runs on every leg of the matrix) and the
   divergence count, which on an unmodified tree must be zero.  The smoke
   variant is the CI gate: a pinned seed, >= 500 programs, zero
   divergences across the quick matrix, plus one planted-JIT-bug probe
   that must BE caught to prove the oracle has teeth. *)
let fuzz_exp ?(smoke = false) () =
  let budget = if smoke then 500 else 1_000 in
  let matrix = if smoke then "quick" else "full" in
  let seed = 0xF00DL in
  let t0 = Unix.gettimeofday () in
  let r = Fuzz.Driver.run ~seed ~budget ~matrix () in
  let dt = Unix.gettimeofday () -. t0 in
  let per_sec = float_of_int r.Fuzz.Driver.programs /. dt in
  if smoke then begin
    if r.Fuzz.Driver.findings <> [] then begin
      Printf.eprintf "fuzz-smoke: FAILED — %d divergence(s) on seed %Ld:\n"
        (List.length r.Fuzz.Driver.findings) seed;
      List.iter
        (fun f -> Format.eprintf "  %a@." Fuzz.Driver.pp_finding f)
        r.Fuzz.Driver.findings;
      exit 1
    end;
    (* The oracle must also catch a planted bug, or "zero divergences"
       is vacuous. *)
    let planted =
      Fuzz.Driver.run ~seed ~budget:60 ~matrix:"quick"
        ~plant:[ Fuzz.Oracle.jit_branch_bug_key ] ()
    in
    (match planted.Fuzz.Driver.findings with
    | [] ->
      Printf.eprintf
        "fuzz-smoke: FAILED — planted JIT branch bug was not caught\n";
      exit 1
    | f :: _ when f.Fuzz.Driver.shrunk.Fuzz.Shrink.insns > 10 ->
      Printf.eprintf
        "fuzz-smoke: FAILED — planted-bug counterexample did not shrink \
         (%d insns)\n"
        f.Fuzz.Driver.shrunk.Fuzz.Shrink.insns;
      exit 1
    | f :: _ ->
      Printf.printf
        "fuzz-smoke: OK — %d programs, 0 divergences (quick matrix, seed \
         %Ld, %.0f programs/sec); planted JIT bug caught and shrunk to %d \
         insns\n"
        r.Fuzz.Driver.programs seed per_sec
        f.Fuzz.Driver.shrunk.Fuzz.Shrink.insns)
  end
  else begin
    print_string
      (Report.section "FUZZ: differential conformance across execution modes");
    print_string
      (Report.table
         ~header:[ "matrix"; "programs"; "divergences"; "programs/sec" ]
         [ [ matrix; string_of_int r.Fuzz.Driver.programs;
             string_of_int (List.length r.Fuzz.Driver.findings);
             Printf.sprintf "%.0f" per_sec ] ]);
    List.iter
      (fun f -> Format.printf "  %a@." Fuzz.Driver.pp_finding f)
      r.Fuzz.Driver.findings
  end

let experiments =
  [ ("fig2", fig2); ("fig3", fig3); ("fig4", fig4); ("tab1", tab1 ~run_demos:true);
    ("tab2", tab2); ("exp-safety", exp_safety); ("exp-term", exp_term);
    ("exp-retire", exp_retire); ("exp-vcost", exp_vcost); ("exp-s4", exp_s4);
    ("perf", perf); ("telemetry", fun () -> telemetry ());
    ("profile", fun () -> profile_exp ());
    ("throughput", fun () -> throughput ()); ("chaos", fun () -> chaos_exp ());
    ("elision", fun () -> elision_exp ());
    ("bound", fun () -> bound_exp ());
    ("reload", fun () -> ignore (reload_exp ()));
    ("parallel", fun () -> parallel_exp ());
    ("fuzz", fun () -> fuzz_exp ()) ]

(* Not part of the default full run: a reduced-iteration variant for
   `make check`. *)
let tele_isolate () =
  let world = World.create_populated () in
  let hctx = World.new_hctx world in
  let time n g =
    let t0 = Unix.gettimeofday () in
    for _ = 1 to n do g () done;
    (Unix.gettimeofday () -. t0) *. 1e9 /. float_of_int n
  in
  let clock = fun () -> Kernel_sim.Vclock.now hctx.Helpers.Hctx.kernel.Kernel_sim.Kernel.clock in
  Telemetry.Registry.set_enabled true;
  let span () = Telemetry.Registry.with_span "interp.run" ~clock (fun () -> ()) in
  ignore (time 1000 span);
  Printf.printf "span alone (enabled): %.1f ns\n" (time 10000 span);
  let h = Telemetry.Registry.histogram "interp.run.ns" in
  let span_h () = Telemetry.Registry.with_span "interp.run" ~clock ~hist:h (fun () -> ()) in
  Printf.printf "span with ~hist: %.1f ns\n" (time 10000 span_h);
  Printf.printf "histogram lookup: %.1f ns\n"
    (time 100000 (fun () -> ignore (Telemetry.Registry.histogram "interp.run.ns")));
  Printf.printf "observe: %.1f ns\n"
    (time 100000 (fun () -> Telemetry.Registry.observe h 12345L));
  Printf.printf "point: %.1f ns\n"
    (time 100000 (fun () -> Telemetry.Registry.point "x.p" ~value:1L));
  Printf.printf "clock call: %.1f ns\n" (time 100000 (fun () -> ignore (clock ())));
  let ctx =
    Kernel_sim.Kmem.alloc world.World.kernel.Kernel_sim.Kernel.mem ~size:64
      ~kind:"ctx" ~name:"iso_ctx" ()
  in
  let ctx_addr = ctx.Kernel_sim.Kmem.base in
  let jit = Runtime.Jit.compile hctx alu_loop_prog in
  let run_jit () = ignore (Runtime.Jit.run hctx jit ~ctx_addr) in
  let run_interp () = ignore (Runtime.Interp.run ~hctx ~prog:alu_loop_prog ~ctx_addr ()) in
  let arm label g =
    ignore (time 1000 g);
    Printf.printf "%s: %.1f ns/run\n" label (time 5000 g)
  in
  Telemetry.Registry.set_enabled false;
  arm "jit disabled" run_jit;
  Telemetry.Registry.set_enabled true;
  Telemetry.Registry.reset ();
  arm "jit enabled (ring 4096)" run_jit;
  Telemetry.Registry.set_trace_capacity 0;
  arm "jit enabled (ring 0)" run_jit;
  Telemetry.Registry.set_trace_capacity 4096;
  Telemetry.Registry.set_enabled false;
  arm "interp disabled" run_interp;
  Telemetry.Registry.set_enabled true;
  Telemetry.Registry.reset ();
  arm "interp enabled (ring 4096)" run_interp;
  Telemetry.Registry.set_trace_capacity 0;
  arm "interp enabled (ring 0)" run_interp;
  Telemetry.Registry.set_trace_capacity 4096;
  let c = Telemetry.Registry.counter "x.y" in
  Printf.printf "bump: %.2f ns\n" (time 100000 (fun () -> Telemetry.Registry.bump c));
  Printf.printf "incr ~n: %.2f ns\n" (time 100000 (fun () -> Telemetry.Registry.incr c ~n:3))

let extra_experiments =
  [ ("telemetry-smoke", fun () -> telemetry ~smoke:true ());
    ("profile-smoke", fun () -> profile_exp ~smoke:true ());
    ("throughput-smoke", fun () -> throughput ~smoke:true ());
    ("chaos-smoke", fun () -> chaos_exp ~smoke:true ());
    ("elision-smoke", fun () -> elision_exp ~smoke:true ());
    ("bound-smoke", fun () -> bound_exp ~smoke:true ());
    ("reload-smoke", reload_smoke);
    ("parallel-smoke", parallel_smoke);
    ("fuzz-smoke", fun () -> fuzz_exp ~smoke:true ());
    ("parallel-quick", fun () -> parallel_exp ~smoke:true ());
    ("tele-isolate", tele_isolate) ]

let () =
  match Sys.argv with
  | [| _ |] ->
    Printf.printf "untenable %s — full reproduction run\n%s\n" Untenable.version
      Untenable.paper;
    List.iter (fun (_, f) -> f ()) experiments
  | [| _; name |] -> (
    match List.assoc_opt name (experiments @ extra_experiments) with
    | Some f -> f ()
    | None ->
      Printf.eprintf "unknown experiment %S; available: %s\n" name
        (String.concat " " (List.map fst experiments));
      exit 1)
  | _ ->
    Printf.eprintf "usage: main.exe [experiment]\n";
    exit 1
