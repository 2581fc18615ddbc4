(* The static-analysis layer: the worklist dataflow engine (termination on
   cyclic CFGs, widening, monotone join laws), each lint pass against the
   known-good/known-bad corpus, and the ground-truth properties the
   ISSUE pins down: a leak the resource pass reports is a real unreleased
   resource under Invoke, guard elision never changes an outcome under
   Chaos fault injection, a static instruction bound always dominates the
   retired count under random chaos, and statically-unbounded programs
   still trip the runtime watchdog (fuel batching masks nothing). *)

open Untenable
open Ebpf.Asm
module Cfg = Ebpf.Cfg
module Insn = Ebpf.Insn
module Dataflow = Analysis.Dataflow
module Driver = Analysis.Driver
module Finding = Analysis.Finding
module Resource_pass = Analysis.Resource_pass
module Bound_pass = Analysis.Bound_pass
module World = Framework.World
module Invoke = Framework.Invoke
module Chaos = Framework.Chaos

let h = Helpers.Registry.id_of_name

(* Program builders and the verify-gate bypass are shared scaffolding. *)
let prog = Generators.prog
let insns_of = Generators.insns_of
let fabricate = Generators.fabricate
let outcome_agrees = Generators.outcome_agrees

let findings_of ?config items =
  (Driver.analyze ?config (insns_of items)).Driver.findings

let has_finding ~pass ~severity fs =
  List.exists
    (fun (f : Finding.t) -> f.Finding.pass = pass && f.Finding.severity = severity)
    fs

let pass_findings ~pass fs =
  List.filter (fun (f : Finding.t) -> f.Finding.pass = pass) fs

(* ---- the engine ---- *)

(* An infinite-height counting lattice: without the widening hook the loop
   below would bump the counter forever; with it the solve must terminate
   and still report convergence. *)
module Count = struct
  type fact = Bot | Count of int | Top

  let bottom = Bot
  let entry = Count 0
  let equal = ( = )

  let join a b =
    match (a, b) with
    | Bot, f | f, Bot -> f
    | Top, _ | _, Top -> Top
    | Count x, Count y -> Count (max x y)

  let widen ~prev next =
    match (prev, next) with
    | Count p, Count n when n > p -> Top (* jump the moving part to top *)
    | _ -> next
end

module Count_solver = Dataflow.Make (Count)

(* r1 = 0; do { r1++ } while (r1 < 10); exit — one back edge. *)
let loop_items =
  [ mov_i r1 0; label "loop"; add_i r1 1; jlt_i r1 10 "loop"; mov_i r0 0;
    exit_ ]

let test_engine_terminates_cyclic () =
  let insns = insns_of loop_items in
  let cfg = Cfg.build insns in
  Alcotest.(check bool) "loop has a back edge" true (Cfg.back_edges cfg <> []);
  let solved =
    Count_solver.solve cfg ~transfer:(fun _b f ->
        match f with Count.Count n -> Count.Count (n + 1) | f -> f)
  in
  Alcotest.(check bool) "converged" true solved.Count_solver.converged;
  Alcotest.(check bool) "loop head widened to top" true
    (List.exists
       (fun (_, into) -> Count_solver.in_fact solved into = Count.Top)
       (Cfg.back_edges cfg))

let test_engine_no_widening_diverges () =
  (* Same solve with the widening disabled (identity hook): the safety cap
     must stop it and report non-convergence, not hang. *)
  let module Raw = struct
    include Count

    let widen ~prev:_ next = next
  end in
  let module S = Dataflow.Make (Raw) in
  let insns = insns_of loop_items in
  let solved =
    S.solve (Cfg.build insns) ~max_iterations:200 ~transfer:(fun _b f ->
        match f with Raw.Count n -> Raw.Count (n + 1) | f -> f)
  in
  Alcotest.(check bool) "cap trips" false solved.S.converged

let test_engine_backward () =
  (* Backward reachability-of-exit: every block of a diamond can reach the
     exit, so the entry's backward in-fact must be [true]. *)
  let module Reach = struct
    type fact = bool

    let bottom = false
    let entry = true
    let equal = ( = )
    let join = ( || )
    let widen ~prev:_ next = next
  end in
  let module S = Dataflow.Make (Reach) in
  let insns =
    insns_of
      [ mov_i r1 1; jeq_i r1 0 "else"; mov_i r0 1; ja "out"; label "else";
        mov_i r0 2; label "out"; exit_ ]
  in
  let cfg = Cfg.build insns in
  let solved =
    S.solve cfg ~dir:Dataflow.Backward ~transfer:(fun _b f -> f)
  in
  Alcotest.(check bool) "entry reaches exit" true
    (S.in_fact solved cfg.Cfg.entry)

(* Diamond join: an obligation owed on only one arm survives the join (may
   semantics), and a holder register differing across arms is dropped from
   the must-holder set. *)
let test_resource_diamond_join () =
  let fs =
    findings_of
      [ mov_i r1 8080; jeq_i r1 0 "else";
        mov_i r1 8080; call (h "bpf_sk_lookup_tcp"); ja "out";
        label "else"; mov_i r0 0;
        label "out"; mov_i r0 0; exit_ ]
  in
  Alcotest.(check bool) "one-arm acquire still a leak" true
    (has_finding ~pass:"resource" ~severity:Finding.Error fs)

(* qcheck: join on the resource lattice is commutative, associative and
   idempotent over canonical facts. *)
let gen_fact =
  QCheck.Gen.(
    let gen_oblig =
      map3
        (fun apc fam regs ->
          { Resource_pass.apc;
            fam =
              (match fam with
              | 0 -> Resource_pass.Sock
              | 1 -> Resource_pass.Ringbuf
              | _ -> Resource_pass.Lock);
            regs = List.sort_uniq compare regs })
        (int_bound 5) (int_bound 2)
        (list_size (int_bound 3) (int_bound 4))
    in
    map
      (fun os ->
        (* canonical: at most one obligation per (apc, fam), sorted *)
        let tbl = Hashtbl.create 8 in
        List.iter
          (fun (o : Resource_pass.oblig) ->
            Hashtbl.replace tbl (o.Resource_pass.apc, o.Resource_pass.fam) o)
          os;
        Hashtbl.fold (fun _ o acc -> o :: acc) tbl []
        |> List.sort (fun (x : Resource_pass.oblig) y ->
               compare (x.Resource_pass.apc, x.Resource_pass.fam)
                 (y.Resource_pass.apc, y.Resource_pass.fam)))
      (list_size (int_bound 6) gen_oblig))

let join_laws_property =
  QCheck.Test.make ~count:300 ~name:"resource join is ACI"
    (QCheck.make QCheck.Gen.(triple gen_fact gen_fact gen_fact))
    (fun (a, b, c) ->
      let module L = Resource_pass.L in
      L.equal (L.join a a) a
      && L.equal (L.join a b) (L.join b a)
      && L.equal (L.join (L.join a b) c) (L.join a (L.join b c)))

(* ---- the resource pass ---- *)

let leaky_items =
  [ mov_i r1 8080; call (h "bpf_sk_lookup_tcp"); mov_i r0 0; exit_ ]

let clean_items =
  [ mov_i r1 8080; call (h "bpf_sk_lookup_tcp"); jeq_i r0 0 "out";
    mov_r r1 r0; call (h "bpf_sk_release"); label "out"; mov_i r0 0; exit_ ]

let test_resource_leak_flagged () =
  Alcotest.(check bool) "sk leak flagged" true
    (has_finding ~pass:"resource" ~severity:Finding.Error
       (findings_of leaky_items))

let test_resource_clean_silent () =
  Alcotest.(check int) "null-checked pairing clean" 0
    (List.length (pass_findings ~pass:"resource" (findings_of clean_items)))

let test_resource_ringbuf_leak () =
  let fs =
    findings_of
      [ map_fd r1 1; mov_i r2 8; mov_i r3 0; call (h "bpf_ringbuf_reserve");
        mov_i r0 0; exit_ ]
  in
  Alcotest.(check bool) "ringbuf reservation leak flagged" true
    (has_finding ~pass:"resource" ~severity:Finding.Error fs)

let test_resource_double_release () =
  let fs =
    findings_of
      [ mov_i r1 8080; call (h "bpf_sk_lookup_tcp"); jeq_i r0 0 "out";
        mov_r r6 r0; mov_r r1 r6; call (h "bpf_sk_release");
        mov_r r1 r6; call (h "bpf_sk_release"); label "out"; mov_i r0 0;
        exit_ ]
  in
  Alcotest.(check bool) "second release warned" true
    (has_finding ~pass:"resource" ~severity:Finding.Warning fs)

(* ---- the lock pass ---- *)

let lock_region body =
  [ map_fd r1 1; call (h "bpf_spin_lock") ] @ body
  @ [ map_fd r1 1; call (h "bpf_spin_unlock"); mov_i r0 0; exit_ ]

let test_lock_sleep_flagged () =
  let fs =
    findings_of
      (lock_region
         [ mov_r r1 r10; add_i r1 (-8); mov_i r2 8; mov_i r3 0;
           call (h "bpf_probe_read_user") ])
  in
  Alcotest.(check bool) "may-sleep under spinlock flagged" true
    (has_finding ~pass:"lock" ~severity:Finding.Error fs)

let test_lock_clean_silent () =
  Alcotest.(check int) "balanced lock region clean" 0
    (List.length
       (pass_findings ~pass:"lock" (findings_of (lock_region [ mov_i r6 1 ]))))

let test_lock_across_back_edge () =
  let fs =
    findings_of
      [ map_fd r1 1; call (h "bpf_spin_lock"); mov_i r6 0; label "loop";
        add_i r6 1; jlt_i r6 4 "loop"; map_fd r1 1;
        call (h "bpf_spin_unlock"); mov_i r0 0; exit_ ]
  in
  Alcotest.(check bool) "lock across back edge flagged" true
    (List.exists
       (fun (f : Finding.t) ->
         f.Finding.pass = "lock"
         && f.Finding.severity = Finding.Error
         && String.length f.Finding.message >= 8
         && String.sub f.Finding.message 0 8 = "spinlock")
       fs)

let test_lock_held_at_exit () =
  let fs =
    findings_of [ map_fd r1 1; call (h "bpf_spin_lock"); mov_i r0 0; exit_ ]
  in
  Alcotest.(check bool) "lock held at exit flagged" true
    (has_finding ~pass:"lock" ~severity:Finding.Error fs)

(* ---- the elide pass ---- *)

let test_elide_redundant_guard () =
  let r =
    Driver.analyze
      (insns_of
         [ mov_i r6 4; jgt_i r6 10 "oob"; mov_i r0 1; exit_; label "oob";
           mov_i r0 0; exit_ ])
  in
  Alcotest.(check int) "one guard elided" 1 r.Driver.elided;
  Alcotest.(check int) "fall-through resolved" 2 r.Driver.elide.(1)

let test_elide_unknown_guard_kept () =
  (* r6 loaded from memory: the facts cannot resolve the branch *)
  let r =
    Driver.analyze
      (insns_of
         [ ldxw r6 r1 0; jgt_i r6 10 "oob"; mov_i r0 1; exit_; label "oob";
           mov_i r0 0; exit_ ])
  in
  Alcotest.(check int) "nothing elided" 0 r.Driver.elided

let test_elide_map_pointer_kept () =
  (* the NULL test on a map handle must never be elided even though the
     runtime models the fd as a small concrete integer *)
  let r =
    Driver.analyze
      (insns_of
         [ map_fd r1 1; jeq_i r1 0 "out"; mov_i r0 1; exit_; label "out";
           mov_i r0 0; exit_ ])
  in
  Alcotest.(check int) "map-handle guard kept" 0 r.Driver.elided

let test_elide_loop_guard_kept () =
  (* the loop condition goes both ways; widening must not let the pass
     pretend otherwise *)
  let r = Driver.analyze (insns_of loop_items) in
  Alcotest.(check int) "loop guard kept" 0 r.Driver.elided

(* ---- driver config ---- *)

let test_driver_config_toggles () =
  let insns = insns_of leaky_items in
  let off = Driver.analyze ~config:Driver.all_off insns in
  Alcotest.(check (list string)) "all off runs nothing" [] off.Driver.passes_run;
  Alcotest.(check int) "no findings when off" 0 (List.length off.Driver.findings);
  let only_lock =
    Driver.analyze
      ~config:{ Driver.all_off with Driver.lock = true }
      insns
  in
  Alcotest.(check (list string)) "only lock runs" [ "lock" ]
    only_lock.Driver.passes_run;
  let sig_a = Driver.config_signature Driver.default_config in
  let sig_b = Driver.config_signature Driver.all_off in
  Alcotest.(check bool) "config signature distinguishes" true (sig_a <> sig_b)

(* ---- ground truth: reported leaks are real leaks ---- *)

type action = Acquire of int | Release of int

(* A well-formed straight-line acquire/release schedule over slots r6..r9:
   only acquire into a free slot, only release a live one. *)
let gen_schedule =
  QCheck.Gen.(
    let slots = [ 6; 7; 8; 9 ] in
    let rec go live n acc st =
      if n = 0 then List.rev acc
      else
        let free = List.filter (fun s -> not (List.mem s live)) slots in
        let choices =
          (if free <> [] then [ `Acq ] else [])
          @ if live <> [] then [ `Rel ] else []
        in
        match choices with
        | [] -> List.rev acc
        | _ -> (
          match oneofl choices st with
          | `Acq ->
            let s = oneofl free st in
            go (s :: live) (n - 1) (Acquire s :: acc) st
          | `Rel ->
            let s = oneofl live st in
            go (List.filter (( <> ) s) live) (n - 1) (Release s :: acc) st)
    in
    fun st ->
      let n = int_range 1 8 st in
      go [] n [] st)

let schedule_to_items actions =
  List.concat_map
    (function
      | Acquire s ->
        [ mov_i r1 8080; call (h "bpf_sk_lookup_tcp"); mov_r s r0 ]
      | Release s -> [ mov_r r1 s; call (h "bpf_sk_release") ])
    actions
  @ [ mov_i r0 0; exit_ ]

let expected_leaks actions =
  List.fold_left
    (fun live -> function
      | Acquire s -> s :: live
      | Release s -> List.filter (( <> ) s) live)
    [] actions
  |> List.length

let leak_ground_truth_property =
  QCheck.Test.make ~count:60
    ~name:"reported leaks = resources stranded under Invoke"
    (QCheck.make gen_schedule) (fun actions ->
      let p = prog ~name:"leakgen" (schedule_to_items actions) in
      let report = Driver.analyze p.Ebpf.Program.insns in
      let reported =
        List.length
          (List.filter
             (fun (f : Finding.t) ->
               f.Finding.pass = "resource"
               && f.Finding.severity = Finding.Error)
             report.Driver.findings)
      in
      let world = World.create_populated () in
      let run = Invoke.run world (fabricate p) in
      let real = run.Invoke.resources_outstanding in
      if reported <> expected_leaks actions || real <> reported then
        QCheck.Test.fail_reportf
          "schedule of %d actions: %d reported, %d expected, %d real"
          (List.length actions) reported (expected_leaks actions) real
      else true)

(* ---- ground truth: elision masks no Chaos-injected fault ---- *)

(* k always-decidable guards in front of the §2.2 probe-read vehicle: the
   elide pass resolves every guard, and the outcome with elision on must be
   identical to the outcome with every check evaluated dynamically — for a
   clean run, an armed helper bug (crash), fuel pressure and stack
   pressure alike. *)
let gen_guarded =
  QCheck.Gen.(
    fun st ->
      let k = int_range 1 5 st in
      let guards =
        List.concat
          (List.init k (fun i ->
               let c = int_bound 20 st and bound = int_bound 20 st in
               [ mov_i r6 c;
                 (match i mod 3 with
                 | 0 -> jgt_i r6 bound "trap"
                 | 1 -> jle_i r6 bound "trap"
                 | _ -> jeq_i r6 bound "trap") ]))
      in
      (k, guards))

let guarded_prog guards =
  prog ~name:"chaosgen" ~prog_type:Ebpf.Program.Kprobe
    (guards
    @ [ call (h "bpf_get_current_task"); mov_r r3 r0; mov_r r1 r10;
        add_i r1 (-16); mov_i r2 16; call (h "bpf_probe_read_kernel");
        mov_i r0 0; exit_; label "trap"; mov_i r0 77; exit_ ])

let chaos_no_masking_property =
  QCheck.Test.make ~count:40 ~name:"elision masks no injected fault"
    (QCheck.make gen_guarded) (fun (k, guards) ->
      let p = guarded_prog guards in
      let analysis = Driver.analyze p.Ebpf.Program.insns in
      if analysis.Driver.elided < k then
        QCheck.Test.fail_reportf "only %d of %d guards elided"
          analysis.Driver.elided k
      else
        let injections =
          [ Chaos.Calm; Chaos.Helper_bug "hbug:probe-read-size-unchecked";
            Chaos.Fuel_pressure 7L; Chaos.Stack_pressure ]
        in
        List.for_all
          (fun inj ->
            let outcome_with use_elision =
              let world = World.create_populated () in
              Chaos.arm inj world.World.bugs;
              let opts =
                Chaos.apply_opts inj
                  { Invoke.default_opts with use_elision }
              in
              (Invoke.run ~opts world (fabricate p)).Invoke.outcome
            in
            let off = outcome_with false and on = outcome_with true in
            outcome_agrees off on
            ||
            (QCheck.Test.fail_reportf
               "under %s: elision off %s, on %s" (Chaos.describe inj)
               (Format.asprintf "%a" Invoke.pp_outcome off)
               (Format.asprintf "%a" Invoke.pp_outcome on)
             : bool))
          injections)

(* ---- cost & termination: the bound pass ---- *)

let cost_of items =
  match (Driver.analyze (insns_of items)).Driver.cost with
  | Some c -> c
  | None -> Alcotest.fail "bound pass did not run"

let retired_of ?(opts = Invoke.default_opts) p =
  let world = World.create_populated () in
  let r = Invoke.run ~opts world (fabricate p) in
  Int64.to_int r.Invoke.insns_retired

let alu_loop_items =
  [ mov_i r0 0; mov_i r6 64; label "loop"; add_i r0 3; sub_i r6 1;
    jne_i r6 0 "loop"; exit_ ]

let test_bound_counted_loop () =
  let c = cost_of alu_loop_items in
  (match c.Bound_pass.loops with
  | [ l ] -> Alcotest.(check (option int)) "trips" (Some 65) l.Bound_pass.trips
  | ls -> Alcotest.failf "expected one loop, got %d" (List.length ls));
  match c.Bound_pass.bound with
  | Bound_pass.Unbounded -> Alcotest.fail "counted loop must be bounded"
  | Bound_pass.Bounded b ->
    let observed = retired_of (prog alu_loop_items) in
    Alcotest.(check bool) "bound dominates retired count" true (observed <= b)

let test_bound_nested_loops () =
  let items =
    [ mov_i r0 0; mov_i r6 8; label "outer"; mov_i r7 16; label "inner";
      add_i r0 1; sub_i r7 1; jne_i r7 0 "inner"; sub_i r6 1;
      jne_i r6 0 "outer"; exit_ ]
  in
  let c = cost_of items in
  Alcotest.(check int) "both loops found" 2 (List.length c.Bound_pass.loops);
  Alcotest.(check bool) "both trip counts inferred" true
    (List.for_all (fun l -> l.Bound_pass.trips <> None) c.Bound_pass.loops);
  match c.Bound_pass.bound with
  | Bound_pass.Unbounded -> Alcotest.fail "nested counted loops must be bounded"
  | Bound_pass.Bounded b ->
    let observed = retired_of (prog items) in
    Alcotest.(check bool) "bound dominates retired count" true (observed <= b)

(* the shapes no sound analysis may guess a number for: a data-dependent
   exit, callback iteration through an [unbounded]-flagged helper, and a
   bpf-to-bpf call *)
let test_bound_honest_unbounded () =
  let is_unbounded items =
    (cost_of items).Bound_pass.bound = Bound_pass.Unbounded
  in
  Alcotest.(check bool) "data-dependent exit" true
    (is_unbounded
       [ label "loop"; call (h "bpf_get_prandom_u32"); jne_i r0 0 "loop";
         mov_i r0 0; exit_ ]);
  Alcotest.(check bool) "bpf_loop callback" true
    (is_unbounded
       [ mov_i r1 4; mov_label r2 "cb"; mov_i r3 0; mov_i r4 0;
         call (h "bpf_loop"); mov_i r0 0; exit_; label "cb"; mov_i r0 0;
         exit_ ]);
  Alcotest.(check bool) "bpf-to-bpf call" true
    (is_unbounded
       [ call_sub "sub"; mov_i r0 0; exit_; label "sub"; mov_i r0 1; exit_ ])

(* ---- ground truth: the static bound dominates execution ---- *)

(* Random counted ALU loops (optionally nested): always inferable, so an
   [Unbounded] verdict here is an inference regression, and a retired
   count above the bound is a soundness bug.  Each program runs under
   every chaos injection with fuel batching on and off: outcomes and
   retired counts must agree pairwise, and both must respect the bound. *)
let gen_bounded =
  QCheck.Gen.(
    fun st ->
      let n = int_range 1 40 st in
      let outer = if bool st then int_range 1 6 st else 0 in
      let body =
        List.init (int_range 1 5 st) (fun _ ->
            match int_bound 2 st with
            | 0 -> `Add (1 + int_bound 9 st)
            | 1 -> `Xor (int_bound 255 st)
            | _ -> `And (int_bound 255 st))
      in
      (n, outer, body))

let bounded_items (n, outer, body) =
  let body =
    List.map
      (function
        | `Add k -> add_i r0 k | `Xor k -> xor_i r0 k | `And k -> and_i r0 k)
      body
  in
  if outer = 0 then
    [ mov_i r0 0; mov_i r6 n; label "loop" ]
    @ body
    @ [ sub_i r6 1; jne_i r6 0 "loop"; exit_ ]
  else
    [ mov_i r0 0; mov_i r6 outer; label "outer"; mov_i r7 n; label "inner" ]
    @ body
    @ [ sub_i r7 1; jne_i r7 0 "inner"; sub_i r6 1; jne_i r6 0 "outer";
        exit_ ]

(* [shape] under each chaos injection, on both engines: batching on and
   off agree on the outcome and the retired count, and neither retires
   more than the static bound.  [fuel] is the invocation's own budget. *)
let bound_sound ?fuel shape =
  let p = prog ~name:"boundgen" (bounded_items shape) in
  let c =
    match (Driver.analyze p.Ebpf.Program.insns).Driver.cost with
    | Some c -> c
    | None -> QCheck.Test.fail_report "bound pass did not run"
  in
  match c.Bound_pass.bound with
  | Bound_pass.Unbounded ->
    QCheck.Test.fail_report "counted loop inferred unbounded"
  | Bound_pass.Bounded b ->
    List.for_all
      (fun (use_jit, inj) ->
        let run_with use_bound_batching =
          let world = World.create_populated () in
          Chaos.arm inj world.World.bugs;
          let opts =
            Chaos.apply_opts inj
              { Invoke.default_opts with fuel; use_jit; use_bound_batching }
          in
          Invoke.run ~opts world (fabricate p)
        in
        let where =
          Printf.sprintf "%s under %s"
            (if use_jit then "jit" else "interp")
            (Chaos.describe inj)
        in
        let off = run_with false and on = run_with true in
        if not (outcome_agrees off.Invoke.outcome on.Invoke.outcome) then
          QCheck.Test.fail_reportf "%s: batching changed the outcome" where
        else if
          not (Int64.equal off.Invoke.insns_retired on.Invoke.insns_retired)
        then
          QCheck.Test.fail_reportf "%s: batching changed retired %Ld -> %Ld"
            where off.Invoke.insns_retired on.Invoke.insns_retired
        else if Int64.to_int on.Invoke.insns_retired > b then
          QCheck.Test.fail_reportf "%s: retired %Ld > static bound %d" where
            on.Invoke.insns_retired b
        else true)
      (List.concat_map
         (fun use_jit ->
           List.map
             (fun inj -> (use_jit, inj))
             [ Chaos.Calm; Chaos.Fuel_pressure 7L; Chaos.Fuel_pressure 100L;
               Chaos.Stack_pressure ])
         [ false; true ])

let bound_soundness_property =
  QCheck.Test.make ~count:40
    ~name:"static bound >= retired insns under chaos, batching on and off"
    (QCheck.make gen_bounded) bound_sound

(* A fixed input: the 29-instruction alu-loop-heavy program (32 rounds of
   eight add/xor/add triples) under a 100,000-instruction budget. *)
let test_bound_alu_loop_heavy () =
  let body = List.concat (List.init 8 (fun _ -> [ `Add 7; `Xor 3; `Add 1 ])) in
  Alcotest.(check bool) "batching keeps outcome and retired count" true
    (bound_sound ~fuel:100_000L (32, 0, body))

(* ---- no masking: unbounded programs stay the watchdog's problem ---- *)

let test_unbounded_still_trips_watchdog () =
  let items = [ mov_i r0 0; label "spin"; add_i r0 1; ja "spin" ] in
  let p = prog items in
  Alcotest.(check bool) "statically unbounded" true
    ((cost_of items).Bound_pass.bound = Bound_pass.Unbounded);
  let trips () =
    Telemetry.Counter.value (Telemetry.Registry.counter "guard.watchdog_trips")
  in
  let before = trips () in
  let world = World.create_populated () in
  let opts = { Invoke.default_opts with Invoke.wall_ns = Some 50_000L } in
  let r = Invoke.run ~opts world (fabricate p) in
  (match r.Invoke.outcome with
  | Invoke.Exhausted _ -> ()
  | o ->
    Alcotest.failf "expected a watchdog trip, got %a" Invoke.pp_outcome o);
  Alcotest.(check bool) "guard.watchdog_trips bumped" true (trips () > before)

let suite =
  [
    Alcotest.test_case "engine: terminates on cyclic CFG" `Quick
      test_engine_terminates_cyclic;
    Alcotest.test_case "engine: cap catches missing widening" `Quick
      test_engine_no_widening_diverges;
    Alcotest.test_case "engine: backward direction" `Quick test_engine_backward;
    Alcotest.test_case "resource: diamond join keeps one-arm leak" `Quick
      test_resource_diamond_join;
    Alcotest.test_case "resource: leak flagged" `Quick test_resource_leak_flagged;
    Alcotest.test_case "resource: null-checked pairing clean" `Quick
      test_resource_clean_silent;
    Alcotest.test_case "resource: ringbuf leak flagged" `Quick
      test_resource_ringbuf_leak;
    Alcotest.test_case "resource: double release warned" `Quick
      test_resource_double_release;
    Alcotest.test_case "lock: may-sleep under lock flagged" `Quick
      test_lock_sleep_flagged;
    Alcotest.test_case "lock: balanced region clean" `Quick
      test_lock_clean_silent;
    Alcotest.test_case "lock: held across back edge flagged" `Quick
      test_lock_across_back_edge;
    Alcotest.test_case "lock: held at exit flagged" `Quick
      test_lock_held_at_exit;
    Alcotest.test_case "elide: redundant guard resolved" `Quick
      test_elide_redundant_guard;
    Alcotest.test_case "elide: unknown guard kept" `Quick
      test_elide_unknown_guard_kept;
    Alcotest.test_case "elide: map-handle guard kept" `Quick
      test_elide_map_pointer_kept;
    Alcotest.test_case "elide: loop guard kept" `Quick
      test_elide_loop_guard_kept;
    Alcotest.test_case "driver: config toggles passes" `Quick
      test_driver_config_toggles;
    Alcotest.test_case "bound: counted loop" `Quick test_bound_counted_loop;
    Alcotest.test_case "bound: nested counted loops" `Quick
      test_bound_nested_loops;
    Alcotest.test_case "bound: honest unbounded verdicts" `Quick
      test_bound_honest_unbounded;
    Alcotest.test_case "bound: unbounded still trips the watchdog" `Quick
      test_unbounded_still_trips_watchdog;
    QCheck_alcotest.to_alcotest join_laws_property;
    QCheck_alcotest.to_alcotest leak_ground_truth_property;
    QCheck_alcotest.to_alcotest chaos_no_masking_property;
    QCheck_alcotest.to_alcotest bound_soundness_property;
    Alcotest.test_case "bound: alu-loop-heavy batching identity" `Quick
      test_bound_alu_loop_heavy;
  ]
