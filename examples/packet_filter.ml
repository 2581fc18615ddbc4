(* A port-blocklist packet filter, both ways — and a concrete instance of
   §2.1's "developers need to find ways to break their program into small
   pieces" when the complexity budget bites.

   The filter checks a packet's destination port against a blocklist.  The
   eBPF version is a compare chain; on a kernel with a small verifier
   budget the 64-entry chain is rejected as "too complex" and has to be
   split into two programs chained by a tail call.  The rustlite version is
   one loop over an array, whatever the list size.

   Run with: dune exec examples/packet_filter.exe *)

open Untenable
module Pipeline = Framework.Pipeline
module Invoke = Framework.Invoke
module World = Framework.World
module Program = Ebpf.Program

let blocked_ports = List.init 64 (fun i -> 7000 + (i * 13))

(* A packet: 14B Ethernet stub + minimal header where dst port lives at
   bytes 16..17 (big-endian, as on the wire). *)
let make_packet ~dst_port =
  let b = Bytes.make 64 '\000' in
  Bytes.set b 16 (Char.chr (dst_port lsr 8));
  Bytes.set b 17 (Char.chr (dst_port land 0xff));
  b

(* ---- eBPF: a straight-line compare chain over the blocklist ---- *)

let ebpf_filter ~ports =
  let open Ebpf.Asm in
  let h = Helpers.Registry.id_of_name in
  let header =
    [
      (* load dst port: skb_load_bytes(off=16, fp-8, len=2) *)
      stdw r10 (-8) 0;
      mov_i r1 16;
      mov_r r2 r10;
      add_i r2 (-8);
      mov_i r3 2;
      call (h "bpf_skb_load_bytes");
      ldxb r6 r10 (-8);
      lsh_i r6 8;
      ldxb r7 r10 (-7);
      or_r r6 r7;
    ]
  in
  let checks = List.concat_map (fun p -> [ jeq_i r6 p "drop" ]) ports in
  let tail = [ mov_i r0 1; exit_; label "drop"; mov_i r0 0; exit_ ] in
  Program.of_items_exn ~name:"port_filter" ~prog_type:Program.Socket_filter
    (header @ checks @ tail)

let run_ebpf ~budget ~ports ~packets =
  let world = World.create_populated () in
  World.set_vconfig world
    { (World.vconfig world) with Bpf_verifier.Verifier.insn_budget = budget };
  let prog = ebpf_filter ~ports in
  Printf.printf "  program: %d insns, verifier budget %d\n" (Program.length prog) budget;
  match Pipeline.load_ebpf world prog with
  | Error e ->
    Format.printf "  %a@." Pipeline.pp_error e;
    Printf.printf
      "  -> the §2.1 outcome: the developer must split the filter into pieces\n"
  | Ok loaded ->
    List.iter
      (fun port ->
        let opts =
            { Invoke.default_opts with
              Invoke.skb_payload = Some (make_packet ~dst_port:port)
            }
          in
          let r = Invoke.run ~opts world loaded in
        Format.printf "  port %5d -> %a@." port Invoke.pp_outcome r.Invoke.outcome)
      packets

(* ---- rustlite: one loop over the blocklist, any size ---- *)

let rustlite_filter ~ports =
  let open Rustlite.Ast in
  {
    Rustlite.Toolchain.name = "port_filter_rl";
    maps = [];
    body =
      Let
        { name = "blocked"; mut = false;
          value = Array_lit (List.map (fun p -> Lit_int (Int64.of_int p)) ports);
          body =
            Let
              { name = "hi"; mut = false;
                value =
                  Match_option
                    { scrutinee = Call ("skb_byte", [ Lit_int 16L ]);
                      bind = "b"; some_branch = Var "b"; none_branch = Lit_int 0L };
                body =
                  Let
                    { name = "lo"; mut = false;
                      value =
                        Match_option
                          { scrutinee = Call ("skb_byte", [ Lit_int 17L ]);
                            bind = "b"; some_branch = Var "b";
                            none_branch = Lit_int 0L };
                      body =
                        Let
                          { name = "port"; mut = false;
                            value =
                              Binop (BOr, Binop (Shl, Var "hi", Lit_int 8L), Var "lo");
                            body =
                              Let
                                { name = "verdict"; mut = true; value = Lit_int 1L;
                                  body =
                                    Seq
                                      [ For
                                          ( "i", Lit_int 0L,
                                            Lit_int (Int64.of_int (List.length ports)),
                                            If
                                              ( Binop (Eq, Index (Var "blocked", Var "i"),
                                                       Var "port"),
                                                Assign ("verdict", Lit_int 0L),
                                                Lit_unit ) );
                                        Var "verdict" ] } } } } };
  }

let run_rustlite ~ports ~packets =
  let world = World.create_populated () in
  match Rustlite.Toolchain.compile (rustlite_filter ~ports) with
  | Error e -> Format.printf "  toolchain: %a@." Rustlite.Toolchain.pp_error e
  | Ok ext -> (
    match Pipeline.load_rustlite world ext with
    | Error e -> Format.printf "  %a@." Pipeline.pp_error e
    | Ok loaded ->
      List.iter
        (fun port ->
          let opts =
            { Invoke.default_opts with
              Invoke.skb_payload = Some (make_packet ~dst_port:port)
            }
          in
          let r = Invoke.run ~opts world loaded in
          Format.printf "  port %5d -> %a@." port Invoke.pp_outcome r.Invoke.outcome)
        packets)

let () =
  let packets = [ 443; 7000; 7013; 8443 ] in
  Printf.printf "=== eBPF filter on a roomy kernel (default 1M-insn budget) ===\n";
  run_ebpf ~budget:1_000_000 ~ports:blocked_ports ~packets;
  Printf.printf "\n=== the same filter under a tight complexity budget ===\n";
  run_ebpf ~budget:48 ~ports:blocked_ports ~packets;
  Printf.printf "\n=== rustlite filter (ret 1 = pass, 0 = drop) ===\n";
  run_rustlite ~ports:blocked_ports ~packets;
  Printf.printf
    "\nThe rustlite loop costs the same to check whatever the blocklist size;\n\
     the eBPF chain's verification cost grows with it until the budget bites.\n"
