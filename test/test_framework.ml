(* Framework tests: worlds, both load paths, the full exploit corpus
   (every demo must succeed on the vulnerable kernel and be defeated on the
   fixed one), and the executable Table 2 matrix. *)

open Untenable
module World = Framework.World
module Pipeline = Framework.Pipeline
module Invoke = Framework.Invoke
module Exploits = Framework.Exploits
module Report = Framework.Report
module Kernel = Kernel_sim.Kernel
module Bpf_map = Maps.Bpf_map
open Ebpf.Asm

let h = Helpers.Registry.id_of_name

let trivial_prog =
  Ebpf.Program.of_items_exn ~name:"triv" ~prog_type:Ebpf.Program.Kprobe
    [ mov_i r0 7; exit_ ]

(* ---------------- worlds & loaders ---------------- *)

let test_world_populated () =
  let world = World.create_populated () in
  Alcotest.(check bool) "has tasks" true
    (List.length world.World.kernel.Kernel.tasks >= 3);
  Alcotest.(check bool) "request sock present" true
    (Kernel.find_sock world.World.kernel ~port:8443 <> None);
  Alcotest.(check bool) "starts healthy" true
    (Kernel.healthy (Kernel.health world.World.kernel))

let test_load_and_run_ebpf () =
  let world = World.create_populated () in
  match Pipeline.load_ebpf world trivial_prog with
  | Error e -> Alcotest.failf "load: %s" (Format.asprintf "%a" Pipeline.pp_error e)
  | Ok loaded -> (
    match (Invoke.run world loaded).Invoke.outcome with
    | Invoke.Finished 7L -> ()
    | o -> Alcotest.failf "expected 7, got %s" (Format.asprintf "%a" Invoke.pp_outcome o))

let test_load_rejects () =
  let world = World.create_populated () in
  let bad =
    Ebpf.Program.of_items_exn ~name:"bad" ~prog_type:Ebpf.Program.Kprobe
      [ mov_i r2 0; ldxdw r0 r2 0; exit_ ]
  in
  match Pipeline.load_ebpf world bad with
  | Error (Pipeline.Verifier_rejected _) -> ()
  | _ -> Alcotest.fail "bad program loaded"

let test_skb_ctx_wiring () =
  let world = World.create_populated () in
  let prog =
    Ebpf.Program.of_items_exn ~name:"len" ~prog_type:Ebpf.Program.Socket_filter
      [ ldxw r0 r1 0; exit_ ]
  in
  match Pipeline.load_ebpf world prog with
  | Error _ -> Alcotest.fail "rejected"
  | Ok loaded -> (
    match
      (Invoke.run
         ~opts:
           { Invoke.default_opts with
             Invoke.skb_payload = Some (Bytes.make 99 'p')
           }
         world loaded)
        .Invoke.outcome
    with
    | Invoke.Finished 99L -> ()
    | o -> Alcotest.failf "expected len 99, got %s" (Format.asprintf "%a" Invoke.pp_outcome o))

let test_tail_call_chain () =
  let world = World.create_populated () in
  (* prog B returns 55; prog A tail-calls index 0 *)
  let prog_b =
    Ebpf.Program.of_items_exn ~name:"b" ~prog_type:Ebpf.Program.Kprobe
      [ mov_i r0 55; exit_ ]
  in
  let b_loaded = Result.get_ok (Pipeline.load_ebpf world prog_b) in
  let b_id = match b_loaded with Pipeline.Ebpf_prog { prog_id; _ } -> prog_id | _ -> 0 in
  let prog_a =
    Ebpf.Program.of_items_exn ~name:"a" ~prog_type:Ebpf.Program.Kprobe
      [ mov_r r1 r1; mov_i r2 0; mov_i r3 0; call (h "bpf_tail_call");
        mov_i r0 1; exit_ ]
  in
  match Pipeline.load_ebpf world prog_a with
  | Error e -> Alcotest.failf "a rejected: %s" (Format.asprintf "%a" Pipeline.pp_error e)
  | Ok a_loaded ->
    (* wire the prog array in the shared hctx at run time is loader-internal;
       instead run and expect the fallthrough (-ENOENT path) *)
    (match (Invoke.run world a_loaded).Invoke.outcome with
    | Invoke.Finished 1L -> () (* empty prog array: tail call fails, returns 1 *)
    | o -> Alcotest.failf "expected 1, got %s" (Format.asprintf "%a" Invoke.pp_outcome o));
    ignore b_id

let test_rustlite_load_path () =
  let world = World.create_populated () in
  let src =
    { Rustlite.Toolchain.name = "c"; maps = []; body = Rustlite.Ast.Lit_int 3L }
  in
  let ext = Result.get_ok (Rustlite.Toolchain.compile src) in
  match Pipeline.load_rustlite world ext with
  | Error _ -> Alcotest.fail "valid extension rejected"
  | Ok loaded -> (
    match (Invoke.run world loaded).Invoke.outcome with
    | Invoke.Finished 3L -> ()
    | o -> Alcotest.failf "expected 3, got %s" (Format.asprintf "%a" Invoke.pp_outcome o))

let test_rustlite_bad_signature () =
  let world = World.create_populated () in
  let src =
    { Rustlite.Toolchain.name = "c"; maps = []; body = Rustlite.Ast.Lit_int 3L }
  in
  let ext = Result.get_ok (Rustlite.Toolchain.compile src) in
  let evil =
    { ext with
      Rustlite.Toolchain.src =
        { ext.Rustlite.Toolchain.src with
          Rustlite.Toolchain.body = Rustlite.Ast.Panic "evil" } }
  in
  match Pipeline.load_rustlite world evil with
  | Error Pipeline.Bad_signature -> ()
  | _ -> Alcotest.fail "tampered extension loaded"

let test_load_time_fixup () =
  let world = World.create_populated () in
  let prog =
    Ebpf.Program.of_items_exn ~name:"fixup" ~prog_type:Ebpf.Program.Kprobe
      [ call_named "bpf_ktime_get_ns"; exit_ ]
  in
  Alcotest.(check bool) "relocations recorded" true (prog.Ebpf.Program.relocs <> []);
  (match Pipeline.load_ebpf world prog with
  | Error e -> Alcotest.failf "fixup load: %s" (Format.asprintf "%a" Pipeline.pp_error e)
  | Ok loaded -> (
    match (Invoke.run world loaded).Invoke.outcome with
    | Invoke.Finished _ -> ()
    | o -> Alcotest.failf "run after fixup: %s" (Format.asprintf "%a" Invoke.pp_outcome o)));
  (* an unknown name fails the fixup, not the verifier *)
  let bad =
    Ebpf.Program.of_items_exn ~name:"badfix" ~prog_type:Ebpf.Program.Kprobe
      [ call_named "bpf_totally_made_up"; mov_i r0 0; exit_ ]
  in
  match Pipeline.load_ebpf world bad with
  | Error (Pipeline.Unknown_helper "bpf_totally_made_up") -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Format.asprintf "%a" Pipeline.pp_error e)
  | Ok _ -> Alcotest.fail "unknown helper name loaded"

(* ---------------- the exploit corpus, exhaustively ---------------- *)

let exploit_tests =
  List.concat_map
    (fun (d : Exploits.demo) ->
      [ Alcotest.test_case (d.Exploits.id ^ " [vulnerable]") `Quick (fun () ->
            let r = d.Exploits.run ~vulnerable:true in
            Alcotest.(check bool)
              (Printf.sprintf "attack succeeds on vulnerable kernel (%s / %s)"
                 r.Exploits.gate r.Exploits.runtime)
              true r.Exploits.attack_succeeded);
        Alcotest.test_case (d.Exploits.id ^ " [fixed]") `Quick (fun () ->
            let r = d.Exploits.run ~vulnerable:false in
            Alcotest.(check bool)
              (Printf.sprintf "attack defeated on fixed kernel (%s / %s)"
                 r.Exploits.gate r.Exploits.runtime)
              false r.Exploits.attack_succeeded) ])
    Exploits.all

let test_every_bug_class_has_executable_demo () =
  (* every non-Misc Table 1 class must reference at least one demo that
     exists in the corpus *)
  List.iter
    (fun (c : Kerndata.Bug_stats.clazz) ->
      if c.Kerndata.Bug_stats.name <> "Misc" then begin
        Alcotest.(check bool)
          (c.Kerndata.Bug_stats.name ^ " has demos")
          true
          (c.Kerndata.Bug_stats.demos <> []);
        List.iter
          (fun id ->
            (* vbug: ids map to verifier toggles; hbug: ids to the corpus *)
            if String.length id > 5 && String.sub id 0 5 = "hbug:" then
              Alcotest.(check bool) (id ^ " demo exists") true
                (Exploits.find id <> None))
          c.Kerndata.Bug_stats.demos
      end)
    Kerndata.Bug_stats.classes

(* ---------------- safety matrix ---------------- *)

let test_safety_matrix_upheld () =
  List.iter
    (fun (row : Framework.Safety_matrix.row) ->
      Alcotest.(check bool)
        (row.Framework.Safety_matrix.property ^ ": "
        ^ row.Framework.Safety_matrix.observed)
        true row.Framework.Safety_matrix.upheld)
    (Framework.Safety_matrix.rows ())

let test_safety_matrix_matches_table2 () =
  let rows = Framework.Safety_matrix.rows () in
  Alcotest.(check int) "six properties" (List.length Kerndata.Safety_props.table)
    (List.length rows);
  List.iter2
    (fun (paper : Kerndata.Safety_props.property) (row : Framework.Safety_matrix.row) ->
      Alcotest.(check string) "property name" paper.Kerndata.Safety_props.prop
        row.Framework.Safety_matrix.property;
      Alcotest.(check string) "mechanism"
        (Kerndata.Safety_props.mechanism_to_string paper.Kerndata.Safety_props.enforced_by)
        (Kerndata.Safety_props.mechanism_to_string row.Framework.Safety_matrix.mechanism))
    Kerndata.Safety_props.table rows

(* ---------------- report rendering ---------------- *)

let test_report_table () =
  let out = Report.table ~header:[ "a"; "bb" ] [ [ "xxx"; "y" ]; [ "z"; "wwww" ] ] in
  let lines = String.split_on_char '\n' out in
  Alcotest.(check bool) "4 lines + trailing" true (List.length lines >= 4);
  (* all non-empty lines have equal width *)
  let widths =
    List.filter_map
      (fun l -> if String.length l > 0 then Some (String.length l) else None)
      lines
  in
  Alcotest.(check bool) "aligned" true
    (List.for_all (fun w -> w = List.hd widths) widths)

let test_report_bar_chart () =
  let out = Report.bar_chart ~width:10 [ ("a", 10.); ("b", 5.) ] in
  Alcotest.(check bool) "contains bars" true (String.contains out '#')

let suite =
  [
    Alcotest.test_case "world populated" `Quick test_world_populated;
    Alcotest.test_case "load & run ebpf" `Quick test_load_and_run_ebpf;
    Alcotest.test_case "load rejects bad" `Quick test_load_rejects;
    Alcotest.test_case "skb ctx wiring" `Quick test_skb_ctx_wiring;
    Alcotest.test_case "tail call fallthrough" `Quick test_tail_call_chain;
    Alcotest.test_case "rustlite load path" `Quick test_rustlite_load_path;
    Alcotest.test_case "rustlite bad signature" `Quick test_rustlite_bad_signature;
    Alcotest.test_case "load-time fixup" `Quick test_load_time_fixup;
    Alcotest.test_case "bug classes have demos" `Quick test_every_bug_class_has_executable_demo;
    Alcotest.test_case "safety matrix upheld" `Quick test_safety_matrix_upheld;
    Alcotest.test_case "safety matrix matches Table 2" `Quick test_safety_matrix_matches_table2;
    Alcotest.test_case "report table" `Quick test_report_table;
    Alcotest.test_case "report bar chart" `Quick test_report_bar_chart;
  ]
  @ exploit_tests
