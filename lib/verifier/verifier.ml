(* The in-kernel-style eBPF verifier: a faithful small-scale reimplementation
   of the Linux design that the paper argues is untenable.

   Like the kernel's [do_check], it symbolically executes every program path
   over abstract register states (Reg_state/Vstate), prunes at join points
   when a previously verified state subsumes the current one, enforces an
   instruction-processing budget (the "program too complex" limit that §2.1
   blames for forced program splitting), checks every memory access against
   the pointer type's bounds, checks helper arguments against shallow
   prototypes (§2.2's blind spot), and tracks references and the spin lock
   so that no path exits holding either.

   Historical verifier bugs are injectable through [Vbug]; each changes one
   specific decision below, turning a rejection into an acceptance exactly
   the way the corresponding CVE did. *)

module Kver = Kerndata.Kver
module Bpf_map = Maps.Bpf_map
open Ebpf

type config = {
  version : Kver.t;
  max_insns : int;             (* BPF_MAXINSNS-style program size cap *)
  insn_budget : int;           (* total processed-instruction complexity cap *)
  max_states_per_point : int;
  allow_loops : bool;          (* false = pre-5.3 back-edge rejection *)
  track_ringbuf_refs : bool;   (* false = pre-5.8: reservations untracked *)
  prune : bool;                (* state pruning (ablation knob) *)
  allow_ptr_leaks : bool;      (* privileged (CAP_PERFMON) mode *)
  reject_speculative_oob : bool;
  (* the §4 transient-execution defence (commit b2157399, "prevent
     out-of-bounds speculation"): for unprivileged programs, refuse
     variable-offset pointer arithmetic into map values rather than trust a
     bounds check the speculative machine may ignore *)
  verbose : bool;              (* collect a per-insn verification log *)
  bugs : Vbug.t;
}

let default_config () =
  { version = Kver.V5_18; max_insns = 4096; insn_budget = 1_000_000;
    max_states_per_point = 64; allow_loops = true; track_ringbuf_refs = true;
    prune = true; allow_ptr_leaks = false; reject_speculative_oob = false;
    verbose = false; bugs = Vbug.none () }

type reject = { at_pc : int; reason : string }

type stats = {
  insns_processed : int;
  states_explored : int;
  prune_hits : int;
  callbacks_verified : int;
  log : string; (* the verification trace, when config.verbose *)
}

type verdict = (stats, reject) result

let pp_reject ppf r = Format.fprintf ppf "at insn %d: %s" r.at_pc r.reason

exception Reject of int * string

let reject pc fmt = Format.kasprintf (fun s -> raise (Reject (pc, s))) fmt

type env = {
  prog : Program.t;
  ctx_desc : Program.ctx_desc;
  config : config;
  map_def : int -> Bpf_map.def option;
  visited : (int, Vstate.t list ref) Hashtbl.t;
  prune_points : bool array;
  mutable insns_processed : int;
  mutable states_explored : int;
  mutable prune_hits : int;
  mutable callbacks_verified : int;
  mutable pending_callbacks : (int * Vstate.t) list;
  mutable seen_callbacks : int list;
  mutable next_id : int;
  logbuf : Buffer.t;
}

(* Append one line to the verification log.  Without [verbose] the
   arguments are consumed unformatted: formatting a message costs more
   than the abstract step it describes. *)
let vlog env fmt =
  if env.config.verbose then
    Format.kasprintf
      (fun s ->
        Buffer.add_string env.logbuf s;
        Buffer.add_char env.logbuf '\n')
      fmt
  else Format.ikfprintf ignore Format.str_formatter fmt

let fresh_id env =
  env.next_id <- env.next_id + 1;
  env.next_id

(* ------------------------------------------------------------------ *)
(* static checks                                                      *)
(* ------------------------------------------------------------------ *)

let check_registers env =
  Array.iteri
    (fun pc insn ->
      let chk_dst ?(writes = true) d =
        if not (Insn.valid_reg d) then reject pc "R%d is invalid" d;
        if writes && d = 10 then reject pc "frame pointer is read only"
      in
      let chk_src s = if not (Insn.valid_reg s) then reject pc "R%d is invalid" s in
      let chk_op = function Insn.Reg s -> chk_src s | Insn.Imm _ -> () in
      match insn with
      | Insn.Alu { dst; src; _ } -> chk_dst dst; chk_op src
      | Insn.Ld_imm64 (dst, _) | Insn.Ld_map_fd (dst, _) -> chk_dst dst
      | Insn.Ldx { dst; src; _ } -> chk_dst dst; chk_src src
      | Insn.St { dst; _ } -> chk_dst ~writes:false dst
      | Insn.Stx { dst; src; _ } -> chk_dst ~writes:false dst; chk_src src
      | Insn.Atomic { dst; src; fetch; _ } ->
        chk_dst ~writes:false dst;
        if fetch then chk_dst src else chk_src src
      | Insn.Jmp { dst; src; _ } -> chk_dst ~writes:false dst; chk_op src
      | Insn.Ja _ | Insn.Call _ | Insn.Call_sub _ | Insn.Exit -> ())
    env.prog.Program.insns

let check_cfg env =
  let insns = env.prog.Program.insns in
  let n = Array.length insns in
  if n = 0 then reject 0 "empty program";
  (* jump ranges, and no fall-through off the end *)
  Array.iteri
    (fun pc insn ->
      let target off =
        let t = pc + 1 + off in
        if t < 0 || t >= n then reject pc "jump out of range (to %d)" t
      in
      match insn with
      | Insn.Ja off -> target off
      | Insn.Jmp { off; _ } -> target off
      | Insn.Call_sub off -> target off
      | _ -> ())
    insns;
  (match insns.(n - 1) with
  | Insn.Exit | Insn.Ja _ -> ()
  | Insn.Jmp _ | Insn.Alu _ | Insn.Ld_imm64 _ | Insn.Ld_map_fd _ | Insn.Ldx _
  | Insn.St _ | Insn.Stx _ | Insn.Atomic _ | Insn.Call _ | Insn.Call_sub _ ->
    reject (n - 1) "fall-through off the program end");
  let cfg = Cfg.build insns in
  if (not env.config.allow_loops) && Cfg.has_loop cfg then begin
    match Cfg.back_edges cfg with
    | (from, to_) :: _ -> reject from "back-edge to insn %d (loops are not allowed)" to_
    | [] -> ()
  end;
  (* map fd resolution *)
  Array.iteri
    (fun pc insn ->
      match insn with
      | Insn.Ld_map_fd (_, fd) ->
        if env.map_def fd = None then reject pc "fd %d is not pointing to a valid map" fd
      | _ -> ())
    insns

let compute_prune_points insns =
  let n = Array.length insns in
  let marks = Array.make n false in
  Array.iteri
    (fun pc insn ->
      let mark t = if t >= 0 && t < n then marks.(t) <- true in
      match insn with
      | Insn.Ja off -> mark (pc + 1 + off)
      | Insn.Jmp { off; _ } ->
        mark (pc + 1 + off);
        mark (pc + 1)
      | Insn.Call _ -> mark (pc + 1)
      | _ -> ())
    insns;
  marks

(* ------------------------------------------------------------------ *)
(* memory access checking                                             *)
(* ------------------------------------------------------------------ *)

let slot_of_addr addr = ((-addr) - 1) / 8

(* Check and perform a stack access.  Returns the loaded register state for
   reads. *)
let stack_access env st ~pc ~(reg : Reg_state.t) ~insn_off ~size ~(access : [ `Read | `Write of Reg_state.t option ]) =
  if not (Tnum.equal reg.Reg_state.var_off Tnum.zero) then
    reject pc "variable stack access is not allowed";
  let addr = reg.Reg_state.off + insn_off in
  if addr >= 0 || addr < -Vstate.stack_size || addr + size > 0 then
    reject pc "invalid stack access off=%d size=%d" addr size;
  let first = slot_of_addr (addr + size - 1) in
  let last = slot_of_addr addr in
  match access with
  | `Write value ->
    let aligned_full = addr mod 8 = 0 && size = 8 in
    (match value with
    | Some v when Reg_state.is_pointer v && aligned_full ->
      if env.config.bugs.Vbug.spill_ptr_leak then
        (* the bug: the spill is recorded as plain initialized bytes, so a
           later read yields an unknown *scalar* holding a kernel address *)
        st.Vstate.stack.(first) <- Vstate.Slot_misc
      else st.Vstate.stack.(first) <- Vstate.Slot_spill v
    | Some v when Reg_state.is_pointer v ->
      reject pc "partial spill of a pointer is not allowed"
    | Some v when aligned_full && Reg_state.const_value v = Some 0L ->
      st.Vstate.stack.(first) <- Vstate.Slot_zero
    | Some v when aligned_full -> st.Vstate.stack.(first) <- Vstate.Slot_spill v
    | _ ->
      for i = first to last do
        st.Vstate.stack.(i) <- Vstate.Slot_misc
      done);
    Reg_state.not_init
  | `Read ->
    if first <> last then begin
      (* multi-slot read: all bytes must be initialized; result is unknown *)
      for i = first to last do
        match st.Vstate.stack.(i) with
        | Vstate.Slot_invalid -> reject pc "invalid read from stack off %d" addr
        | Vstate.Slot_spill r when Reg_state.is_pointer r ->
          if not env.config.allow_ptr_leaks then
            reject pc "corrupted spill memory at off %d" addr
        | _ -> ()
      done;
      Reg_state.unknown_scalar
    end
    else
      match st.Vstate.stack.(first) with
      | Vstate.Slot_invalid -> reject pc "invalid read from stack off %d" addr
      | Vstate.Slot_zero -> Reg_state.const_scalar 0L
      | Vstate.Slot_misc -> Reg_state.unknown_scalar
      | Vstate.Slot_spill r ->
        if size = 8 && addr mod 8 = 0 then r
        else if Reg_state.is_pointer r && not env.config.allow_ptr_leaks then
          reject pc "corrupted spill memory at off %d" addr
        else Reg_state.unknown_scalar

(* Bounds check for pointer-to-buffer types (map values, helper memory).
   The variable part [umin, umax] is unsigned; comparisons must be too. *)
let buffer_access env ~pc ~(reg : Reg_state.t) ~insn_off ~size ~bound ~what =
  ignore env;
  let open Reg_state in
  let base = reg.off + insn_off in
  if base < 0 then
    reject pc "%s access might be negative (off=%d)" what base;
  if Int64.unsigned_compare reg.umax (Int64.of_int bound) > 0 then
    reject pc "R offset is outside of the %s (umax=%Lu)" what reg.umax;
  let max_total = Int64.add reg.umax (Int64.of_int (base + size)) in
  if Int64.unsigned_compare max_total (Int64.of_int bound) > 0 then
    reject pc "invalid access to %s: off=%Lu size=%d bound=%d" what
      (Int64.add reg.umax (Int64.of_int base)) size bound

let check_mem_access env st ~pc ~reg_no ~insn_off ~size ~access =
  let reg = Vstate.reg st reg_no in
  let open Reg_state in
  if not (is_init reg) then reject pc "R%d !read_ok" reg_no;
  if is_maybe_null reg then
    reject pc "R%d invalid mem access '%a'; possibly NULL" reg_no
      (fun ppf r -> Reg_state.pp_rtype ppf r.Reg_state.rtype) reg;
  (match access with
  | `Write (Some v) when Reg_state.is_pointer v && reg.rtype <> Ptr_stack ->
    if not env.config.allow_ptr_leaks then
      reject pc "R%d leaks addr into %a" reg_no
        (fun ppf r -> Reg_state.pp_rtype ppf r.Reg_state.rtype) reg
  | _ -> ());
  match reg.rtype with
  | Ptr_stack -> stack_access env st ~pc ~reg ~insn_off ~size ~access
  | Ptr_ctx -> (
    if not (Tnum.equal reg.var_off Tnum.zero) || reg.off <> 0 then
      reject pc "variable ctx access is not allowed";
    match Program.find_ctx_field env.ctx_desc ~off:insn_off ~size with
    | None -> reject pc "invalid bpf_context access off=%d size=%d" insn_off size
    | Some f -> (
      match access with
      | `Read -> Reg_state.unknown_scalar
      | `Write _ ->
        if not f.Program.writable then
          reject pc "write to read-only ctx field %s" f.Program.fname;
        Reg_state.not_init))
  | Ptr_map_value { map_id } -> (
    let def =
      match env.map_def map_id with
      | Some d -> d
      | None -> reject pc "internal: unknown map %d" map_id
    in
    buffer_access env ~pc ~reg ~insn_off ~size ~bound:def.Bpf_map.value_size
      ~what:"map_value";
    (* forbid touching the embedded spin lock directly *)
    (match def.Bpf_map.lock_off with
    | Some l when insn_off + reg.off <= l && l < insn_off + reg.off + size ->
      reject pc "direct access to bpf_spin_lock is not allowed"
    | _ -> ());
    match access with `Read -> Reg_state.unknown_scalar | `Write _ -> Reg_state.not_init)
  | Ptr_mem { mem_size } -> (
    buffer_access env ~pc ~reg ~insn_off ~size ~bound:mem_size ~what:"mem";
    match access with `Read -> Reg_state.unknown_scalar | `Write _ -> Reg_state.not_init)
  | Ptr_sock -> (
    match access with
    | `Write _ -> reject pc "cannot write into sock"
    | `Read ->
      buffer_access env ~pc ~reg ~insn_off ~size ~bound:128 ~what:"sock";
      Reg_state.unknown_scalar)
  | Ptr_task -> (
    match access with
    | `Write _ -> reject pc "cannot write into task_struct"
    | `Read ->
      buffer_access env ~pc ~reg ~insn_off ~size ~bound:256 ~what:"task_struct";
      Reg_state.unknown_scalar)
  | Scalar | Not_init | Map_handle _ | Ptr_map_value_or_null _ | Ptr_mem_or_null _
  | Ptr_sock_or_null | Ptr_task_or_null ->
    reject pc "R%d invalid mem access '%a'" reg_no
      (fun ppf r -> Reg_state.pp_rtype ppf r.Reg_state.rtype) reg

(* ------------------------------------------------------------------ *)
(* ALU                                                                *)
(* ------------------------------------------------------------------ *)

let operand_state st = function
  | Insn.Reg r -> Vstate.reg st r
  | Insn.Imm v -> Reg_state.const_scalar (Int64.of_int v)

let do_alu env st ~pc ~(op : Insn.alu_op) ~width ~dst ~src =
  let open Reg_state in
  let dreg = Vstate.reg st dst in
  let sreg = operand_state st src in
  (match src with
  | Insn.Reg r -> if not (is_init (Vstate.reg st r)) then reject pc "R%d !read_ok" r
  | Insn.Imm _ -> ());
  if op <> Insn.Mov && not (is_init dreg) then reject pc "R%d !read_ok" dst;
  let result =
    match op with
    | Insn.Mov -> (
      match width with
      | Insn.W64 -> { sreg with ref_obj_id = sreg.ref_obj_id }
      | Insn.W32 ->
        if is_pointer sreg then
          if env.config.allow_ptr_leaks then Reg_state.unknown_scalar
          else reject pc "R%d partial copy of pointer" dst
        else zext32 sreg)
    | Insn.Add | Insn.Sub when is_pointer dreg || is_pointer sreg -> (
      (* pointer arithmetic *)
      if width = Insn.W32 then reject pc "32-bit pointer arithmetic prohibited";
      if st.Vstate.lock_held && false then ();
      let ptr, scalar, ptr_is_dst =
        if is_pointer dreg && is_pointer sreg then begin
          if op = Insn.Sub && dreg.rtype = Ptr_stack && sreg.rtype = Ptr_stack then
            (* fp - fp is a scalar *)
            (dreg, sreg, true)
          else reject pc "R%d pointer %s pointer prohibited" dst
              (if op = Insn.Add then "+=" else "-=")
        end
        else if is_pointer dreg then (dreg, sreg, true)
        else (sreg, dreg, false)
      in
      if is_pointer dreg && is_pointer sreg then
        (* the fp - fp case: result is an unknown scalar *)
        Reg_state.unknown_scalar
      else begin
        if (not ptr_is_dst) && op = Insn.Sub then
          reject pc "R%d tried to subtract pointer from scalar" dst;
        if is_maybe_null ptr && not env.config.bugs.Vbug.ptr_arith_or_null then
          reject pc "R%d pointer arithmetic on %a prohibited, null-check it first" dst
            (fun ppf r -> Reg_state.pp_rtype ppf r.Reg_state.rtype) ptr;
        (match ptr.rtype with
        | Ptr_ctx when not (Tnum.is_const scalar.var_off) ->
          reject pc "variable offset on ctx pointer is not allowed"
        | Ptr_sock | Ptr_task | Ptr_sock_or_null | Ptr_task_or_null ->
          if not (Tnum.is_const scalar.var_off) then
            reject pc "variable offset on %a is not allowed"
              (fun ppf r -> Reg_state.pp_rtype ppf r.Reg_state.rtype) ptr
        | _ -> ());
        if not (is_scalar scalar) then reject pc "R%d pointer arithmetic with non-scalar" dst;
        match const_value scalar with
        | Some c ->
          let c = if op = Insn.Sub then Int64.neg c else c in
          let noff = ptr.off + Int64.to_int c in
          if abs noff > 1 lsl 29 then reject pc "value out of range for pointer offset";
          { ptr with off = noff }
        | None ->
          if env.config.reject_speculative_oob then
            (match ptr.rtype with
            | Ptr_map_value _ | Ptr_mem _ ->
              reject pc
                "R%d variable offset into a map value may be exploited under \
                 speculation (unprivileged)"
                dst
            | _ -> ());
          if op = Insn.Sub then reject pc "R%d variable pointer subtraction" dst
          else
            let sum = Reg_state.scalar_add { scalar with rtype = Scalar }
                { ptr with rtype = Scalar; off = 0; var_off = ptr.var_off;
                  smin = ptr.smin; smax = ptr.smax; umin = ptr.umin; umax = ptr.umax }
            in
            { ptr with var_off = sum.var_off; smin = sum.smin; smax = sum.smax;
              umin = sum.umin; umax = sum.umax }
      end)
    | Insn.Add | Insn.Sub | Insn.Mul | Insn.Div | Insn.Or | Insn.And | Insn.Lsh
    | Insn.Rsh | Insn.Mod | Insn.Xor | Insn.Arsh | Insn.Neg -> (
      (* scalar ALU *)
      if is_pointer dreg || is_pointer sreg then
        if env.config.allow_ptr_leaks then Reg_state.unknown_scalar
        else reject pc "R%d pointer arithmetic with '%s' prohibited" dst
            (Insn.alu_op_to_string op)
      else begin
        let d, s =
          match width with
          | Insn.W64 -> (dreg, sreg)
          | Insn.W32 -> (zext32 dreg, zext32 sreg)
        in
        let r =
          match op with
          | Insn.Add -> scalar_add d s
          | Insn.Sub ->
            if width = Insn.W32 && env.config.bugs.Vbug.bounds_32bit_broken then begin
              (* the bug: bounds computed as if the 32-bit subtraction cannot
                 wrap — negatives clamped to zero instead of widening *)
              let naive = scalar_sub d s in
              { naive with
                umin = 0L;
                umax = Reg_state.s_max 0L naive.smax;
                smin = 0L;
                smax = Reg_state.s_max 0L naive.smax;
                var_off = Tnum.range ~min:0L ~max:(Reg_state.s_max 0L naive.smax) }
            end
            else scalar_sub d s
          | Insn.Mul -> scalar_mul d s
          | Insn.And -> scalar_and d s
          | Insn.Or -> scalar_or d s
          | Insn.Xor -> scalar_xor d s
          | Insn.Lsh | Insn.Rsh | Insn.Arsh -> (
            let kind = match op with
              | Insn.Lsh -> `Lsh | Insn.Rsh -> `Rsh | _ -> `Arsh
            in
            match const_value s with
            | Some c when Int64.compare c 0L >= 0 && Int64.compare c 64L < 0 ->
              scalar_shift_const kind d (Int64.to_int c)
            | Some _ -> reject pc "invalid shift amount"
            | None -> Reg_state.mark_unknown d)
          | Insn.Div | Insn.Mod -> (
            match const_value s with
            | Some c -> scalar_div_const d c
            | None -> Reg_state.mark_unknown d)
          | Insn.Neg -> scalar_neg d
          | Insn.Mov -> assert false
        in
        match width with Insn.W64 -> r | Insn.W32 -> zext32 r
      end)
  in
  (* never allow writing a ref-carrying reg's obligation away silently: the
     obligation lives in st.refs; the reg copy is fine *)
  Vstate.set_reg st dst result

(* ------------------------------------------------------------------ *)
(* conditional jumps                                                  *)
(* ------------------------------------------------------------------ *)

let u_lt a b = Int64.unsigned_compare a b < 0
let u_le a b = Int64.unsigned_compare a b <= 0

(* Decide the branch statically if the bounds allow (is_branch_taken). *)
let branch_taken (cond : Insn.cond) (d : Reg_state.t) (c : int64) : bool option =
  let open Reg_state in
  match cond with
  | Insn.Eq ->
    if is_const d && const_value d = Some c then Some true
    else if not (Tnum.contains d.var_off c) || u_lt c d.umin || u_lt d.umax c then
      Some false
    else None
  | Insn.Ne -> (
    if is_const d && const_value d = Some c then Some false
    else if not (Tnum.contains d.var_off c) || u_lt c d.umin || u_lt d.umax c then
      Some true
    else None)
  | Insn.Gt -> if u_lt c d.umin then Some true else if u_le d.umax c then Some false else None
  | Insn.Ge -> if u_le c d.umin then Some true else if u_lt d.umax c then Some false else None
  | Insn.Lt -> if u_lt d.umax c then Some true else if u_le c d.umin then Some false else None
  | Insn.Le -> if u_le d.umax c then Some true else if u_lt c d.umin then Some false else None
  | Insn.Sgt ->
    if Int64.compare d.smin c > 0 then Some true
    else if Int64.compare d.smax c <= 0 then Some false
    else None
  | Insn.Sge ->
    if Int64.compare d.smin c >= 0 then Some true
    else if Int64.compare d.smax c < 0 then Some false
    else None
  | Insn.Slt ->
    if Int64.compare d.smax c < 0 then Some true
    else if Int64.compare d.smin c >= 0 then Some false
    else None
  | Insn.Sle ->
    if Int64.compare d.smax c <= 0 then Some true
    else if Int64.compare d.smin c > 0 then Some false
    else None
  | Insn.Set ->
    if not (Int64.equal (Int64.logand d.var_off.Tnum.value c) 0L) then Some true
    else if Int64.equal (Int64.logand (Tnum.umax d.var_off) c) 0L then Some false
    else None

(* Refine a scalar register's bounds given that (reg cond c) is [taken]. *)
let refine_against_const (cond : Insn.cond) (d : Reg_state.t) (c : int64) ~taken =
  let open Reg_state in
  if d.rtype <> Scalar then d
  else
    let d =
      match (cond, taken) with
      | Insn.Eq, true | Insn.Ne, false ->
        { d with var_off = Tnum.intersect d.var_off (Tnum.const c);
          umin = c; umax = c; smin = c; smax = c }
      | Insn.Eq, false | Insn.Ne, true -> d (* a single excluded point: keep *)
      | Insn.Gt, true | Insn.Le, false ->
        if Int64.equal c (-1L) then d else { d with umin = u_max d.umin (Int64.add c 1L) }
      | Insn.Gt, false | Insn.Le, true -> { d with umax = u_min d.umax c }
      | Insn.Ge, true | Insn.Lt, false -> { d with umin = u_max d.umin c }
      | Insn.Ge, false | Insn.Lt, true ->
        if Int64.equal c 0L then d else { d with umax = u_min d.umax (Int64.sub c 1L) }
      | Insn.Sgt, true | Insn.Sle, false ->
        if Int64.equal c Int64.max_int then d
        else { d with smin = s_max d.smin (Int64.add c 1L) }
      | Insn.Sgt, false | Insn.Sle, true -> { d with smax = s_min d.smax c }
      | Insn.Sge, true | Insn.Slt, false -> { d with smin = s_max d.smin c }
      | Insn.Sge, false | Insn.Slt, true ->
        if Int64.equal c Int64.min_int then d
        else { d with smax = s_min d.smax (Int64.sub c 1L) }
      | Insn.Set, _ -> d
    in
    bounds_sync d

(* ------------------------------------------------------------------ *)
(* helper calls                                                       *)
(* ------------------------------------------------------------------ *)

(* Memory-region readability/writability for helper buffer args. *)
let helper_buffer_check env st ~pc ~reg_no ~min_size ~max_size ~write =
  let reg = Vstate.reg st reg_no in
  let open Reg_state in
  if is_maybe_null reg then reject pc "R%d type=%a expected non-NULL buffer" reg_no
      (fun ppf r -> Reg_state.pp_rtype ppf r.Reg_state.rtype) reg;
  match reg.rtype with
  | Ptr_stack ->
    if not (Tnum.equal reg.var_off Tnum.zero) then
      reject pc "R%d variable stack buffer" reg_no;
    let addr = reg.off in
    if addr >= 0 || addr < -Vstate.stack_size || addr + max_size > 0 then
      reject pc "R%d invalid stack buffer off=%d size=%d" reg_no addr max_size;
    if write then begin
      (* the helper initializes the buffer *)
      let first = slot_of_addr (addr + max_size - 1) in
      let last = slot_of_addr addr in
      for i = first to last do
        st.Vstate.stack.(i) <- Vstate.Slot_misc
      done
    end
    else begin
      (* all bytes the helper may read must be initialized *)
      let first = slot_of_addr (addr + max_size - 1) in
      let last = slot_of_addr addr in
      for i = first to last do
        if st.Vstate.stack.(i) = Vstate.Slot_invalid then
          reject pc "R%d reads uninitialized stack (slot %d)" reg_no i
      done
    end
  | Ptr_map_value { map_id } ->
    let def =
      match env.map_def map_id with
      | Some d -> d
      | None -> reject pc "internal: unknown map %d" map_id
    in
    buffer_access env ~pc ~reg ~insn_off:0 ~size:max_size
      ~bound:def.Bpf_map.value_size ~what:"map_value"
  | Ptr_mem { mem_size } ->
    buffer_access env ~pc ~reg ~insn_off:0 ~size:max_size ~bound:mem_size ~what:"mem"
  | _ ->
    ignore min_size;
    reject pc "R%d type=%a expected buffer pointer" reg_no
      (fun ppf r -> Reg_state.pp_rtype ppf r.Reg_state.rtype) reg

(* Resolve the size carried by another argument register. *)
let resolve_size env st ~pc ~(spec : Helpers.Proto.mem_size) ~require_const =
  ignore env;
  match spec with
  | Helpers.Proto.Fixed n -> n
  | Helpers.Proto.Size_arg i ->
    let reg_no = i + 1 in
    let r = Vstate.reg st reg_no in
    if not (Reg_state.is_scalar r) then reject pc "R%d expected size scalar" reg_no;
    if require_const then
      match Reg_state.const_value r with
      | Some c when Int64.compare c 0L > 0 && Int64.compare c 0x10000L <= 0 ->
        Int64.to_int c
      | _ -> reject pc "R%d must be a known, sane constant size" reg_no
    else begin
      let umax = r.Reg_state.umax in
      if Int64.unsigned_compare umax 0x10000L > 0 then
        reject pc "R%d unbounded memory size (umax=%Lu)" reg_no umax;
      if Int64.equal umax 0L then reject pc "R%d zero-sized memory access" reg_no;
      Int64.to_int umax
    end

let do_call env st ~pc ~helper_id =
  let open Helpers in
  let def =
    match Registry.find helper_id with
    | Some d -> d
    | None -> reject pc "invalid func unknown#%d" helper_id
  in
  if Kver.compare def.Registry.introduced env.config.version > 0 then
    reject pc "helper %s not available in %s" def.Registry.name
      (Kver.to_string env.config.version);
  if env.config.bugs.Vbug.loop_inline_uaf && String.equal def.Registry.name "bpf_loop"
  then
    raise (Vbug.Verifier_crash "use-after-free in inline_bpf_loop (fb4e3b33)");
  if st.Vstate.lock_held && not (Proto.unlocks def.Registry.proto) then
    reject pc "helper call %s is not allowed while holding a lock" def.Registry.name;
  let proto = def.Registry.proto in
  (* scan args r1..rN *)
  let current_map = ref None in
  let callback_pc = ref None in
  List.iteri
    (fun i (arg : Proto.arg_type) ->
      let reg_no = i + 1 in
      let r = Vstate.reg st reg_no in
      let open Reg_state in
      if (not (is_init r)) && arg <> Proto.Arg_anything then
        reject pc "R%d !read_ok (helper %s arg %d)" reg_no def.Registry.name (i + 1);
      match arg with
      | Proto.Arg_anything -> ()
      | Proto.Arg_scalar ->
        if not (is_scalar r) then
          reject pc "R%d type=%a expected scalar" reg_no
            (fun ppf x -> Reg_state.pp_rtype ppf x.Reg_state.rtype) r
      | Proto.Arg_map_handle -> (
        match r.rtype with
        | Map_handle { map_id } -> (
          match env.map_def map_id with
          | Some def -> current_map := Some (map_id, def)
          | None -> reject pc "internal: unknown map %d" map_id)
        | _ -> reject pc "R%d expected map pointer" reg_no)
      | Proto.Arg_map_key -> (
        match !current_map with
        | None -> reject pc "R%d map key without preceding map arg" reg_no
        | Some (_, def) ->
          helper_buffer_check env st ~pc ~reg_no ~min_size:def.Bpf_map.key_size
            ~max_size:def.Bpf_map.key_size ~write:false)
      | Proto.Arg_map_value -> (
        match !current_map with
        | None -> reject pc "R%d map value without preceding map arg" reg_no
        | Some (_, def) ->
          helper_buffer_check env st ~pc ~reg_no ~min_size:def.Bpf_map.value_size
            ~max_size:def.Bpf_map.value_size ~write:false)
      | Proto.Arg_map_value_out -> (
        match !current_map with
        | None -> reject pc "R%d map value without preceding map arg" reg_no
        | Some (_, def) ->
          helper_buffer_check env st ~pc ~reg_no ~min_size:def.Bpf_map.value_size
            ~max_size:def.Bpf_map.value_size ~write:true)
      | Proto.Arg_mem_readable spec ->
        let size = resolve_size env st ~pc ~spec ~require_const:false in
        helper_buffer_check env st ~pc ~reg_no ~min_size:size ~max_size:size
          ~write:false
      | Proto.Arg_mem_writable spec ->
        let size = resolve_size env st ~pc ~spec ~require_const:false in
        helper_buffer_check env st ~pc ~reg_no ~min_size:size ~max_size:size
          ~write:true
      | Proto.Arg_ctx ->
        if r.rtype <> Ptr_ctx then reject pc "R%d expected ctx pointer" reg_no
      | Proto.Arg_task -> (
        match r.rtype with
        | Ptr_task -> ()
        | Ptr_task_or_null when env.config.bugs.Vbug.task_or_null_as_task ->
          (* the bug: maybe-NULL accepted where non-NULL required *)
          ()
        | Scalar when env.config.bugs.Vbug.task_or_null_as_task -> ()
        | _ ->
          reject pc "R%d type=%a expected task pointer (null-check it first)" reg_no
            (fun ppf x -> Reg_state.pp_rtype ppf x.Reg_state.rtype) r)
      | Proto.Arg_sock ->
        if r.rtype <> Ptr_sock then
          reject pc "R%d expected referenced sock pointer" reg_no
      | Proto.Arg_spin_lock -> (
        match r.rtype with
        | Ptr_map_value { map_id } -> (
          match env.map_def map_id with
          | Some def -> (
            match def.Bpf_map.lock_off with
            | Some l when r.off = l && Tnum.equal r.var_off Tnum.zero ->
              current_map := Some (map_id, def)
            | Some _ -> reject pc "R%d does not point at the map's bpf_spin_lock" reg_no
            | None -> reject pc "map does not contain a bpf_spin_lock" )
          | None -> reject pc "internal: unknown map %d" map_id)
        | _ -> reject pc "R%d expected map value with bpf_spin_lock" reg_no)
      | Proto.Arg_callback_pc -> (
        match Reg_state.const_value r with
        | Some c
          when Int64.compare c 0L >= 0
               && Int64.to_int c < Array.length env.prog.Program.insns ->
          callback_pc := Some (Int64.to_int c)
        | _ -> reject pc "R%d callback target must be a known valid insn" reg_no)
      | Proto.Arg_ringbuf_mem ->
        (match r.rtype with
        | Ptr_mem _ when r.ref_obj_id <> 0 || not env.config.track_ringbuf_refs -> ()
        | Ptr_mem _ -> reject pc "R%d mem is not a tracked ringbuf reservation" reg_no
        | _ -> reject pc "R%d expected ringbuf reservation" reg_no))
    proto.Proto.args;
  (* effects: releases *)
  (match Proto.releases proto with
  | None -> ()
  | Some i ->
    let reg_no = i + 1 in
    let r = Vstate.reg st reg_no in
    let rid = r.Reg_state.ref_obj_id in
    if rid = 0 then begin
      if env.config.track_ringbuf_refs || not (String.equal def.Registry.name "bpf_ringbuf_submit" || String.equal def.Registry.name "bpf_ringbuf_discard") then
        reject pc "release of unreferenced object in R%d" reg_no
    end
    else begin
      if not (List.mem_assoc rid st.Vstate.refs) then
        reject pc "release of already-released reference id=%d" rid;
      st.Vstate.refs <- List.remove_assoc rid st.Vstate.refs;
      Vstate.invalidate_ref st ~rid
    end);
  (* effects: lock *)
  if Proto.locks proto then begin
    if st.Vstate.lock_held then reject pc "second bpf_spin_lock while holding one";
    st.Vstate.lock_held <- true
  end;
  if Proto.unlocks proto then begin
    if not st.Vstate.lock_held then reject pc "bpf_spin_unlock without holding a lock";
    st.Vstate.lock_held <- false
  end;
  (* callback body gets queued for its own verification pass *)
  (match !callback_pc with
  | None -> ()
  | Some cb ->
    if not (List.mem cb env.seen_callbacks) then begin
      env.seen_callbacks <- cb :: env.seen_callbacks;
      let entry = Vstate.init () in
      (* r1 = loop index / element index; r2 = callback context (bpf_loop)
         or map value (for_each); r3 = context (for_each) *)
      Vstate.set_reg entry 1 Reg_state.unknown_scalar;
      (if String.equal def.Registry.name "bpf_for_each_map_elem" then begin
         (match !current_map with
         | Some (map_id, _) ->
           Vstate.set_reg entry 2
             (Reg_state.pointer (Reg_state.Ptr_map_value { map_id }))
         | None -> Vstate.set_reg entry 2 Reg_state.unknown_scalar);
         Vstate.set_reg entry 3 (Vstate.reg st 3)
       end
       else Vstate.set_reg entry 2 (Vstate.reg st 3));
      env.pending_callbacks <- (cb, entry) :: env.pending_callbacks
    end);
  (* resolve any return-size argument before the caller-saved clobber *)
  let ret_mem_size =
    match proto.Proto.ret with
    | Proto.Ret_mem_or_null spec ->
      Some (resolve_size env st ~pc ~spec ~require_const:true)
    | _ -> None
  in
  (* clobber caller-saved registers and set r0 *)
  for i = 1 to 5 do
    Vstate.set_reg st i Reg_state.not_init
  done;
  let set_r0_or_null ~mk =
    let id = fresh_id env in
    let acquires = Proto.acquires proto in
    let tracked =
      acquires
      && (env.config.track_ringbuf_refs
         || not (String.equal def.Registry.name "bpf_ringbuf_reserve"))
    in
    let ref_obj_id = if tracked then id else 0 in
    if tracked then begin
      let kind =
        match proto.Proto.ret with
        | Proto.Ret_sock_or_null -> Vstate.Ref_sock
        | Proto.Ret_mem_or_null _ -> Vstate.Ref_ringbuf
        | _ -> Vstate.Ref_task
      in
      st.Vstate.refs <- (id, kind) :: st.Vstate.refs
    end;
    Vstate.set_reg st 0 { (mk ~id ~ref_obj_id) with Reg_state.id }
  in
  (match proto.Proto.ret with
  | Proto.Ret_scalar | Proto.Ret_void -> Vstate.set_reg st 0 Reg_state.unknown_scalar
  | Proto.Ret_task -> Vstate.set_reg st 0 (Reg_state.pointer Reg_state.Ptr_task)
  | Proto.Ret_map_value_or_null ->
    let map_id =
      match !current_map with
      | Some (map_id, _) -> map_id
      | None -> reject pc "map_value return without map arg"
    in
    set_r0_or_null ~mk:(fun ~id ~ref_obj_id ->
        ignore id;
        { (Reg_state.pointer (Reg_state.Ptr_map_value_or_null { map_id }))
          with Reg_state.ref_obj_id })
  | Proto.Ret_sock_or_null ->
    set_r0_or_null ~mk:(fun ~id ~ref_obj_id ->
        ignore id;
        { (Reg_state.pointer Reg_state.Ptr_sock_or_null) with Reg_state.ref_obj_id })
  | Proto.Ret_mem_or_null _ ->
    let size = Option.get ret_mem_size in
    set_r0_or_null ~mk:(fun ~id ~ref_obj_id ->
        ignore id;
        { (Reg_state.pointer (Reg_state.Ptr_mem_or_null { mem_size = size }))
          with Reg_state.ref_obj_id }));
  ()

(* ------------------------------------------------------------------ *)
(* the main symbolic-execution walk                                   *)
(* ------------------------------------------------------------------ *)

let check_exit env st ~pc =
  let r0 = Vstate.reg st 0 in
  if not (Reg_state.is_init r0) then reject pc "R0 !read_ok at exit";
  if Reg_state.is_pointer r0 && not env.config.allow_ptr_leaks then
    reject pc "R0 leaks addr as return value";
  if st.Vstate.lock_held then reject pc "bpf_spin_lock is held at exit";
  match st.Vstate.refs with
  | [] -> ()
  | (rid, _) :: _ -> reject pc "unreleased reference id=%d at exit" rid

(* One branch fork: returns the list of (pc, state) successors. *)
let do_jmp env st ~pc ~cond ~width ~dst ~src ~off =
  let open Reg_state in
  let dreg = Vstate.reg st dst in
  if not (is_init dreg) then reject pc "R%d !read_ok" dst;
  (match src with
  | Insn.Reg r -> if not (is_init (Vstate.reg st r)) then reject pc "R%d !read_ok" r
  | Insn.Imm _ -> ());
  let fallthrough = pc + 1 in
  let target = pc + 1 + off in
  let fork () = [ (target, st); (fallthrough, Vstate.copy st) ] in
  let sreg = operand_state st src in
  (* pointer null checks *)
  if is_maybe_null dreg && (cond = Insn.Eq || cond = Insn.Ne)
     && Reg_state.const_value sreg = Some 0L && dreg.id <> 0
  then begin
    let null_branch_is_target = cond = Insn.Eq in
    let st_null = if null_branch_is_target then st else Vstate.copy st in
    let st_nonnull = if null_branch_is_target then Vstate.copy st else st in
    Vstate.mark_ptr_or_null st_null ~id:dreg.id ~is_null:true;
    Vstate.mark_ptr_or_null st_nonnull ~id:dreg.id ~is_null:false;
    if null_branch_is_target then [ (target, st_null); (fallthrough, st_nonnull) ]
    else [ (target, st_nonnull); (fallthrough, st_null) ]
  end
  else if is_pointer dreg || is_pointer sreg then begin
    (* pointer comparisons: same-type is tolerated, mixed is a leak vector *)
    if is_pointer dreg && is_pointer sreg && dreg.rtype = sreg.rtype then fork ()
    else if env.config.allow_ptr_leaks then fork ()
    else if is_maybe_null dreg && Reg_state.const_value sreg = Some 0L then
      (* or_null without id: treat as an opaque fork *)
      fork ()
    else reject pc "R%d pointer comparison prohibited" dst
  end
  else begin
    (* scalar comparison *)
    let d_for_test = match width with Insn.W64 -> dreg | Insn.W32 -> zext32 dreg in
    match Reg_state.const_value (match width with Insn.W64 -> sreg | Insn.W32 -> zext32 sreg) with
    | Some c -> (
      match branch_taken cond d_for_test c with
      | Some true -> [ (target, st) ]
      | Some false -> [ (fallthrough, st) ]
      | None ->
        if width = Insn.W64 then begin
          let st_t = st and st_f = Vstate.copy st in
          Vstate.set_reg st_t dst (refine_against_const cond dreg c ~taken:true);
          Vstate.set_reg st_f dst (refine_against_const cond dreg c ~taken:false);
          (* if src was a const-valued register, nothing more to refine *)
          [ (target, st_t); (fallthrough, st_f) ]
        end
        else fork ())
    | None -> fork ()
  end

let process_insn env st ~pc =
  let insns = env.prog.Program.insns in
  let insn = insns.(pc) in
  match insn with
  | Insn.Alu { op; width; dst; src } ->
    do_alu env st ~pc ~op ~width ~dst ~src;
    `Continue (pc + 1)
  | Insn.Ld_imm64 (dst, v) ->
    Vstate.set_reg st dst (Reg_state.const_scalar v);
    `Continue (pc + 1)
  | Insn.Ld_map_fd (dst, fd) ->
    Vstate.set_reg st dst (Reg_state.pointer (Reg_state.Map_handle { map_id = fd }));
    `Continue (pc + 1)
  | Insn.Ldx { size; dst; src; off } ->
    let v =
      check_mem_access env st ~pc ~reg_no:src ~insn_off:off
        ~size:(Insn.size_bytes size) ~access:`Read
    in
    let v = if Insn.size_bytes size < 8 then Reg_state.zext32 v else v in
    Vstate.set_reg st dst v;
    `Continue (pc + 1)
  | Insn.St { size; dst; off; imm } ->
    let (_ : Reg_state.t) =
      check_mem_access env st ~pc ~reg_no:dst ~insn_off:off
        ~size:(Insn.size_bytes size)
        ~access:(`Write (Some (Reg_state.const_scalar (Int64.of_int imm))))
    in
    `Continue (pc + 1)
  | Insn.Stx { size; dst; off; src } ->
    let sreg = Vstate.reg st src in
    if not (Reg_state.is_init sreg) then reject pc "R%d !read_ok" src;
    let (_ : Reg_state.t) =
      check_mem_access env st ~pc ~reg_no:dst ~insn_off:off
        ~size:(Insn.size_bytes size) ~access:(`Write (Some sreg))
    in
    `Continue (pc + 1)
  | Insn.Atomic { aop; size; dst; src; off; fetch } ->
    if size <> Insn.W && size <> Insn.DW then
      reject pc "BPF_ATOMIC requires a 32- or 64-bit operand";
    let sreg = Vstate.reg st src in
    if not (Reg_state.is_init sreg) then reject pc "R%d !read_ok" src;
    if Reg_state.is_pointer sreg && not env.config.allow_ptr_leaks then
      reject pc "R%d leaks addr into memory (atomic)" src;
    (* the atomic-fetch pointer-leak class (fixes a82fe085/7d3baf0a): a
       fetch/cmpxchg on a slot holding a spilled pointer would surface the
       kernel address in a scalar register *)
    let dreg = Vstate.reg st dst in
    (match dreg.Reg_state.rtype with
    | Reg_state.Ptr_stack when Tnum.equal dreg.Reg_state.var_off Tnum.zero -> (
      let addr = dreg.Reg_state.off + off in
      if addr < 0 && addr >= -Vstate.stack_size && addr mod 8 = 0 then
        match st.Vstate.stack.(slot_of_addr addr) with
        | Vstate.Slot_spill r
          when Reg_state.is_pointer r
               && (fetch || aop = Insn.A_cmpxchg)
               && (not env.config.bugs.Vbug.spill_ptr_leak)
               && not env.config.allow_ptr_leaks ->
          reject pc "leaking pointer through atomic fetch at fp%+d" addr
        | _ -> ())
    | _ -> ());
    if aop = Insn.A_cmpxchg && not (Reg_state.is_init (Vstate.reg st 0)) then
      reject pc "R0 !read_ok (cmpxchg comparand)";
    (* the access is a read-modify-write *)
    let (_ : Reg_state.t) =
      check_mem_access env st ~pc ~reg_no:dst ~insn_off:off
        ~size:(Insn.size_bytes size) ~access:`Read
    in
    let (_ : Reg_state.t) =
      check_mem_access env st ~pc ~reg_no:dst ~insn_off:off
        ~size:(Insn.size_bytes size)
        ~access:(`Write (Some Reg_state.unknown_scalar))
    in
    if fetch then Vstate.set_reg st src Reg_state.unknown_scalar;
    if aop = Insn.A_cmpxchg then Vstate.set_reg st 0 Reg_state.unknown_scalar;
    `Continue (pc + 1)
  | Insn.Ja off -> `Continue (pc + 1 + off)
  | Insn.Jmp { cond; width; dst; src; off } ->
    `Branch (do_jmp env st ~pc ~cond ~width ~dst ~src ~off)
  | Insn.Call helper_id ->
    do_call env st ~pc ~helper_id;
    `Continue (pc + 1)
  | Insn.Call_sub off ->
    (* BPF-to-BPF call (the +500-LoC Fig. 2 feature).  Arguments must be
       scalars or the ctx pointer: passing frame-local pointers across
       frames is not supported in this model (documented simplification). *)
    let target = pc + 1 + off in
    if st.Vstate.lock_held then
      reject pc "BPF-to-BPF call while holding a lock";
    let entry = Vstate.init () in
    for i = 1 to 5 do
      let r = Vstate.reg st i in
      let open Reg_state in
      (match r.rtype with
      | Not_init | Scalar | Ptr_ctx -> ()
      | _ ->
        if is_init r then
          reject pc "R%d: only scalars and ctx may cross a bpf2bpf call" i);
      Vstate.set_reg entry i
        (if is_init r then (if r.rtype = Ptr_ctx then r else Reg_state.unknown_scalar)
         else Reg_state.not_init)
    done;
    if not (List.mem target env.seen_callbacks) then begin
      env.seen_callbacks <- target :: env.seen_callbacks;
      env.pending_callbacks <- (target, entry) :: env.pending_callbacks
    end;
    (* caller side: r1-r5 clobbered, r0 = callee result *)
    for i = 1 to 5 do
      Vstate.set_reg st i Reg_state.not_init
    done;
    Vstate.set_reg st 0 Reg_state.unknown_scalar;
    `Continue (pc + 1)
  | Insn.Exit ->
    check_exit env st ~pc;
    `Done

(* Walk all paths from (entry_pc, entry_state). *)
let explore env ~entry_pc ~entry_state =
  let stack = ref [ (entry_pc, entry_state) ] in
  let budget_exceeded () =
    env.insns_processed > env.config.insn_budget
  in
  while !stack <> [] do
    match !stack with
    | [] -> ()
    | (pc, st) :: rest ->
      stack := rest;
      env.states_explored <- env.states_explored + 1;
      let continue_ = ref (Some (pc, st)) in
      while !continue_ <> None do
        let cur_pc, cur_st =
          match !continue_ with Some x -> x | None -> assert false
        in
        continue_ := None;
        if budget_exceeded () then
          reject cur_pc
            "BPF program is too large. Processed %d insn (the complexity limit)"
            env.insns_processed;
        if cur_pc < 0 || cur_pc >= Array.length env.prog.Program.insns then
          reject cur_pc "jump out of range"
        else begin
          env.insns_processed <- env.insns_processed + 1;
          (* pruning at join points *)
          let pruned =
            env.config.prune && env.prune_points.(cur_pc)
            && (match Hashtbl.find_opt env.visited cur_pc with
               | None -> false
               | Some olds ->
                 List.exists
                   (fun old_ ->
                     Vstate.subsumes
                       ~ignore_scalar_bounds:env.config.bugs.Vbug.prune_too_eager
                       ~ignore_lock:env.config.bugs.Vbug.spin_lock_path_miss ~old_
                       cur_st)
                   !olds)
          in
          if pruned then begin
            env.prune_hits <- env.prune_hits + 1;
            vlog env "%d: safe (pruned: state subsumed by a verified one)" cur_pc
          end
          else begin
            if env.config.prune && env.prune_points.(cur_pc) then begin
              let cell =
                match Hashtbl.find_opt env.visited cur_pc with
                | Some l -> l
                | None ->
                  let l = ref [] in
                  Hashtbl.replace env.visited cur_pc l;
                  l
              in
              if List.length !cell < env.config.max_states_per_point then
                cell := Vstate.copy cur_st :: !cell
            end;
            if env.config.verbose then
              vlog env "%d: %s ; %s" cur_pc
                (Insn.to_string env.prog.Program.insns.(cur_pc))
                (Format.asprintf "%a" Vstate.pp cur_st);
            match process_insn env cur_st ~pc:cur_pc with
            | `Continue next -> continue_ := Some (next, cur_st)
            | `Done -> ()
            | `Branch succs -> (
              match succs with
              | [] -> ()
              | (npc, nst) :: others ->
                stack := others @ !stack;
                continue_ := Some (npc, nst))
          end
        end
      done
  done

let make_env ~config ~map_def (prog : Program.t) =
  { prog; ctx_desc = Program.ctx_of_prog_type prog.Program.prog_type; config;
    map_def; visited = Hashtbl.create 64;
    prune_points = compute_prune_points prog.Program.insns; insns_processed = 0;
    states_explored = 0; prune_hits = 0; callbacks_verified = 0;
    pending_callbacks = []; seen_callbacks = []; next_id = 0;
    logbuf = Buffer.create 256 }

let tele_runs = Telemetry.Registry.counter "verifier.runs"
let tele_accepts = Telemetry.Registry.counter "verifier.accepts"
let tele_rejects = Telemetry.Registry.counter "verifier.rejects"
let tele_insns = Telemetry.Registry.counter "verifier.insns_processed"
let tele_states = Telemetry.Registry.counter "verifier.states_explored"
let tele_prunes = Telemetry.Registry.counter "verifier.prune_hits"
let tele_callbacks = Telemetry.Registry.counter "verifier.callbacks_verified"
let tele_time = Telemetry.Registry.histogram "verifier.ns"

(* Verification happens at load time, before the simulated clock starts to
   move, so the per-program verification-time histogram — the continuously
   measurable form of §2's "verification cost keeps growing" — is taken on
   the host clock instead. *)

let tele_record env started_ns accepted =
  if Telemetry.Registry.enabled () then begin
    Telemetry.Registry.bump tele_runs;
  Telemetry.Registry.incr (if accepted then tele_accepts else tele_rejects);
  Telemetry.Registry.incr tele_insns ~n:env.insns_processed;
  Telemetry.Registry.incr tele_states ~n:env.states_explored;
  Telemetry.Registry.incr tele_prunes ~n:env.prune_hits;
  Telemetry.Registry.incr tele_callbacks ~n:env.callbacks_verified;
  Telemetry.Registry.observe tele_time (Int64.sub (Telemetry.Clock.now_ns ()) started_ns);
    Telemetry.Registry.point
      (if accepted then "verifier.accept" else "verifier.reject")
      ~value:(Int64.of_int env.states_explored)
  end

let verify ?(config = default_config ()) ~map_def (prog : Program.t) : verdict =
  let env = make_env ~config ~map_def prog in
  let started_ns = Telemetry.Clock.now_ns () in
  match
    if Array.length prog.Program.insns > config.max_insns then
      reject 0 "too many instructions (%d > %d)" (Array.length prog.Program.insns)
        config.max_insns;
    check_registers env;
    check_cfg env;
    explore env ~entry_pc:0 ~entry_state:(Vstate.init ());
    (* verify queued callback bodies with their own entry states *)
    let rec drain () =
      match env.pending_callbacks with
      | [] -> ()
      | (cb_pc, entry) :: rest ->
        env.pending_callbacks <- rest;
        (* callbacks use a fresh stack frame and may not touch outer refs *)
        Hashtbl.reset env.visited;
        explore env ~entry_pc:cb_pc ~entry_state:entry;
        env.callbacks_verified <- env.callbacks_verified + 1;
        drain ()
    in
    drain ()
  with
  | () ->
    tele_record env started_ns true;
    Ok
      { insns_processed = env.insns_processed; states_explored = env.states_explored;
        prune_hits = env.prune_hits; callbacks_verified = env.callbacks_verified;
        log = Buffer.contents env.logbuf }
  | exception Reject (at_pc, reason) ->
    tele_record env started_ns false;
    Error { at_pc; reason }

(* Convenience: verify against a map registry. *)
let verify_with_registry ?config ~registry prog =
  let map_def id =
    Option.map (fun m -> m.Bpf_map.def) (Bpf_map.Registry.find registry id)
  in
  verify ?config ~map_def prog
