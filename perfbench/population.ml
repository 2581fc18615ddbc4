(* The extensions the workloads serve and load.  Every program here is
   built with the public assembler and toolchain; nothing reaches into
   library internals. *)

open Untenable
module Bpf_map = Maps.Bpf_map

let h = Helpers.Registry.id_of_name

let filter name items =
  Ebpf.Program.of_items_exn ~name ~prog_type:Ebpf.Program.Socket_filter items

(* ---- serve-light: the three tiny filters of `bench -- throughput` ---- *)

let light =
  let open Ebpf.Asm in
  [ filter "len" [ ldxw r0 r1 0; exit_ ];
    filter "parity" [ ldxw r6 r1 0; mov_r r0 r6; and_i r0 1; exit_ ];
    (* the big-endian u16 at payload offset 16 *)
    filter "port"
      [ stdw r10 (-8) 0; mov_i r1 16; mov_r r2 r10; add_i r2 (-8); mov_i r3 2;
        call (h "bpf_skb_load_bytes"); ldxb r6 r10 (-8); lsh_i r6 8;
        ldxb r7 r10 (-7); or_r r6 r7; mov_r r0 r6; exit_ ] ]

(* Plain-OCaml model of [light] on one packet: the values the three
   filters return, in attach order. *)
let light_model (pkt : Bytes.t) =
  [ Int64.of_int (Bytes.length pkt);
    Int64.of_int (Bytes.length pkt land 1);
    Int64.of_int ((Char.code (Bytes.get pkt 16) lsl 8) lor Char.code (Bytes.get pkt 17)) ]

(* ---- serve-compute / serve-churn: heavy programs ---- *)

(* The counted ALU loop of the bound pass's bench: statically bounded, so
   fuel checks are batched per straight-line window. *)
let alu_loop =
  let open Ebpf.Asm in
  let body =
    List.concat (List.init 8 (fun _ -> [ add_i r0 7; xor_i r0 3; add_i r0 1 ]))
  in
  filter "alu-loop"
    ([ mov_i r0 0; mov_i r6 32; label "loop" ]
    @ body
    @ [ sub_i r6 1; jne_i r6 0 "loop"; exit_ ])

(* 48 constant bounds checks the elide pass resolves statically. *)
let guard_heavy =
  let open Ebpf.Asm in
  filter "guard-heavy"
    ([ mov_i r6 4 ]
    @ List.concat (List.init 48 (fun i -> [ jgt_i r6 (10 + (i mod 7)) "drop" ]))
    @ [ ldxw r0 r1 0; and_i r0 0xff; exit_; label "drop"; mov_i r0 0; exit_ ])

let counter_map =
  { Bpf_map.name = "ctr"; kind = Bpf_map.Array; key_size = 4; value_size = 8;
    max_entries = 1; lock_off = None }

(* Count invocations in slot 0 through bpf_map_lookup_elem and
   bpf_map_update_elem; returns the new count. *)
let map_counter ~map_id =
  let open Ebpf.Asm in
  filter "map-counter"
    [ stw r10 (-8) 0; map_fd r1 map_id; mov_r r2 r10; add_i r2 (-8);
      call (h "bpf_map_lookup_elem"); jeq_i r0 0 "miss"; ldxdw r6 r0 0;
      add_i r6 1; stxdw r10 (-16) r6; map_fd r1 map_id; mov_r r2 r10;
      add_i r2 (-8); mov_r r3 r10; add_i r3 (-16); mov_i r4 0;
      call (h "bpf_map_update_elem"); mov_r r0 r6; exit_; label "miss";
      mov_i r0 0; exit_ ]

(* The signed Rustlite counter: path B's runtime under fuel.  [bump]
   varies the artifact so load-mix signs many distinct extensions. *)
let rustlite_counter ?(bump = 1) name =
  let open Rustlite.Ast in
  let next = Binop (Add, Var "count", Lit_int (Int64.of_int bump)) in
  match
    Rustlite.Toolchain.compile
      { Rustlite.Toolchain.name;
        maps =
          [ { Bpf_map.name = "stats"; kind = Bpf_map.Array; key_size = 4;
              value_size = 8; max_entries = 1; lock_off = None } ];
        body =
          Match_option
            { scrutinee = Call ("map_get", [ Lit_str "stats"; Lit_int 0L ]);
              bind = "count";
              some_branch =
                Seq [ Call ("map_set", [ Lit_str "stats"; Lit_int 0L; next ]); next ];
              none_branch = Lit_int (-1L) } }
  with
  | Ok ext -> ext
  | Error e -> failwith (Format.asprintf "%a" Rustlite.Toolchain.pp_error e)

(* The churn workload's hot-reloaded filter: a fresh image per reload. *)
let hot k =
  let open Ebpf.Asm in
  filter (Printf.sprintf "hot%d" k) [ ldxw r0 r1 0; add_i r0 (1000 + k); exit_ ]

(* ---- load-mix: verifier-heavy shapes (exp-vcost) ---- *)

(* [n] path-joining branches: 2^n paths that pruning merges. *)
let diamond_chain n =
  let open Ebpf.Asm in
  Ebpf.Program.of_items_exn ~name:(Printf.sprintf "diamond%d" n)
    ~prog_type:Ebpf.Program.Kprobe
    (List.concat
       [ [ mov_i r0 0; ldxdw r6 r1 0 ];
         List.concat_map
           (fun i ->
             let t = Printf.sprintf "t%d" i in
             [ jset_i r6 1 t; add_i r0 0; label t ])
           (List.init n Fun.id);
         [ mov_i r0 0; exit_ ] ])

(* Branches accumulating a path-unique bitmask: no state subsumes
   another, so the walk is exponential in [n].  [v] varies the image
   (the threshold) without changing the walk. *)
let unprunable ?(v = 0) n =
  let open Ebpf.Asm in
  Ebpf.Program.of_items_exn ~name:(Printf.sprintf "unprunable%d.%d" n v)
    ~prog_type:Ebpf.Program.Kprobe
    (List.concat
       [ [ mov_i r0 0; mov_i r7 0 ];
         List.concat_map
           (fun i ->
             let t = Printf.sprintf "t%d" i in
             [ ldxdw r6 r1 (8 * (i mod 8)); jle_i r6 (1000 + v) t; or_i r7 (1 lsl i);
               label t ])
           (List.init n Fun.id);
         [ mov_i r0 0; exit_ ] ])

(* The slowest tenth of a cold pass's loads is made of these, so the
   pass's p99 lands on fixed shapes whatever the seed draws. *)
let heavy =
  List.map diamond_chain [ 4; 8; 12; 16 ]
  @ List.map unprunable [ 4; 5 ]
  @ List.init 4 (fun v -> unprunable ~v 6)
  @ List.init 2 (fun v -> unprunable ~v 7)
