(* A full verifier state: the 11 registers, the 512-byte stack, the set of
   acquired references, and the spin-lock flag; plus the state-subsumption
   test used for pruning (the kernel's [states_equal]/[regsafe]). *)

let stack_size = 512
let n_slots = stack_size / 8

type slot =
  | Slot_invalid
  | Slot_misc            (* initialized with unknown scalar bytes *)
  | Slot_zero
  | Slot_spill of Reg_state.t (* an 8-byte register spill *)

type ref_kind = Ref_sock | Ref_ringbuf | Ref_task

type t = {
  regs : Reg_state.t array; (* 11 *)
  stack : slot array;       (* [0] is fp-8 .. [n_slots-1] is fp-512 *)
  mutable refs : (int * ref_kind) list; (* ref_obj_id, kind *)
  mutable lock_held : bool;
}

let init () =
  let regs = Array.make 11 Reg_state.not_init in
  regs.(1) <- Reg_state.pointer Reg_state.Ptr_ctx;
  regs.(10) <- Reg_state.pointer Reg_state.Ptr_stack;
  { regs; stack = Array.make n_slots Slot_invalid; refs = []; lock_held = false }

let copy t =
  { regs = Array.copy t.regs; stack = Array.copy t.stack; refs = t.refs;
    lock_held = t.lock_held }

let reg t i = t.regs.(i)
let set_reg t i r = t.regs.(i) <- r

(* Mark every register and spilled slot carrying null-check id [id] as
   either the non-null pointer or the constant 0 (the kernel's
   mark_ptr_or_null_regs). *)
let mark_ptr_or_null t ~id ~is_null =
  let convert (r : Reg_state.t) =
    if r.Reg_state.id <> id then r
    else if is_null then Reg_state.const_scalar 0L
    else
      let rtype =
        match r.Reg_state.rtype with
        | Reg_state.Ptr_map_value_or_null { map_id } -> Reg_state.Ptr_map_value { map_id }
        | Ptr_mem_or_null { mem_size } -> Ptr_mem { mem_size }
        | Ptr_sock_or_null -> Ptr_sock
        | Ptr_task_or_null -> Ptr_task
        | other -> other
      in
      { r with rtype; id = 0 }
  in
  Array.iteri (fun i r -> t.regs.(i) <- convert r) t.regs;
  Array.iteri
    (fun i s -> match s with Slot_spill r -> t.stack.(i) <- Slot_spill (convert r) | _ -> ())
    t.stack;
  (* a NULL result never carried the reference: drop the obligation *)
  if is_null then begin
    match
      List.find_opt
        (fun (rid, _) ->
          (* the ref id equals the null-check id for acquire-returning helpers *)
          rid = id)
        t.refs
    with
    | Some (rid, _) -> t.refs <- List.filter (fun (r, _) -> r <> rid) t.refs
    | None -> ()
  end

(* Invalidate every register/slot referring to released reference [rid]. *)
let invalidate_ref t ~rid =
  let convert (r : Reg_state.t) =
    if r.Reg_state.ref_obj_id = rid then Reg_state.not_init else r
  in
  Array.iteri (fun i r -> t.regs.(i) <- convert r) t.regs;
  Array.iteri
    (fun i s -> match s with Slot_spill r -> t.stack.(i) <- Slot_spill (convert r) | _ -> ())
    t.stack

(* --- subsumption (pruning) --- *)

let u_le a b = Int64.unsigned_compare a b <= 0
let s_le a b = Int64.compare a b <= 0

(* Is [cur] safe given that [old] was verified?  I.e. does [old] describe a
   superset of [cur]'s possible values? *)
let regsafe ?(ignore_bounds = false) (old_ : Reg_state.t) (cur : Reg_state.t) =
  let open Reg_state in
  match (old_.rtype, cur.rtype) with
  | Not_init, _ -> true (* old tolerated anything in this reg *)
  | Scalar, Scalar ->
    ignore_bounds
    || (u_le old_.umin cur.umin && u_le cur.umax old_.umax
       && s_le old_.smin cur.smin && s_le cur.smax old_.smax
       && Tnum.subset old_.var_off cur.var_off)
  | Ptr_stack, Ptr_stack | Ptr_ctx, Ptr_ctx | Ptr_sock, Ptr_sock
  | Ptr_sock_or_null, Ptr_sock_or_null | Ptr_task, Ptr_task
  | Ptr_task_or_null, Ptr_task_or_null ->
    old_.off = cur.off && Tnum.equal old_.var_off cur.var_off
  | Ptr_map_value { map_id = a }, Ptr_map_value { map_id = b }
  | Ptr_map_value_or_null { map_id = a }, Ptr_map_value_or_null { map_id = b } ->
    a = b && old_.off = cur.off
    && u_le old_.umin cur.umin && u_le cur.umax old_.umax
    && Tnum.subset old_.var_off cur.var_off
  | Ptr_mem { mem_size = a }, Ptr_mem { mem_size = b }
  | Ptr_mem_or_null { mem_size = a }, Ptr_mem_or_null { mem_size = b } ->
    a = b && old_.off = cur.off
    && u_le old_.umin cur.umin && u_le cur.umax old_.umax
  | Map_handle { map_id = a }, Map_handle { map_id = b } -> a = b
  | _, _ -> false

let slot_safe ?ignore_bounds old_ cur =
  match (old_, cur) with
  | Slot_invalid, _ -> true
  | Slot_misc, (Slot_misc | Slot_zero | Slot_spill _) -> true
  | Slot_zero, Slot_zero -> true
  | Slot_spill o, Slot_spill c -> regsafe ?ignore_bounds o c
  | (Slot_misc | Slot_zero | Slot_spill _), _ -> false

(* [subsumes ~old cur]: pruning is allowed when the previously-verified
   state covers the current one.  [ignore_scalar_bounds] models the
   prune-too-eager verifier bug.  Like the kernel's [states_equal] it
   stops at the first mismatch, cheapest checks first; it is a pure
   predicate, so the order changes no answer. *)
let subsumes ?(ignore_scalar_bounds = false) ?(ignore_lock = false) ~old_ cur =
  let ignore_bounds = ignore_scalar_bounds in
  let rec regs_ok i =
    i > 10 || (regsafe ~ignore_bounds old_.regs.(i) cur.regs.(i) && regs_ok (i + 1))
  in
  let rec slots_ok i =
    i >= n_slots
    || (slot_safe ~ignore_bounds old_.stack.(i) cur.stack.(i) && slots_ok (i + 1))
  in
  List.compare_lengths old_.refs cur.refs = 0
  && (ignore_lock || Bool.equal old_.lock_held cur.lock_held)
  && regs_ok 0 && slots_ok 0

let pp ppf t =
  for i = 0 to 10 do
    if Reg_state.is_init t.regs.(i) then
      Format.fprintf ppf "r%d=%a " i Reg_state.pp t.regs.(i)
  done;
  if t.lock_held then Format.fprintf ppf "lock ";
  if t.refs <> [] then Format.fprintf ppf "refs=%d" (List.length t.refs)

(* ---- join / widening over whole states (abstract interpretation) ---- *)

let join_slot a b =
  match (a, b) with
  | Slot_invalid, _ | _, Slot_invalid -> Slot_invalid
  | Slot_zero, Slot_zero -> Slot_zero
  | Slot_spill ra, Slot_spill rb -> (
    let j = Reg_state.join ra rb in
    match j.Reg_state.rtype with
    | Reg_state.Not_init ->
      (* incompatible spills: only safe as uninitialized *)
      Slot_invalid
    | Reg_state.Scalar when not (Reg_state.is_pointer ra) && not (Reg_state.is_pointer rb)
      -> Slot_spill j
    | _ -> Slot_spill j)
  | (Slot_misc | Slot_zero), (Slot_misc | Slot_zero) -> Slot_misc
  | Slot_misc, Slot_spill r | Slot_spill r, Slot_misc ->
    (* mixing raw bytes with a spill: scalar spills degrade to misc; a
       pointer spill must not be readable as bytes *)
    if Reg_state.is_pointer r then Slot_invalid else Slot_misc
  | Slot_zero, Slot_spill r | Slot_spill r, Slot_zero ->
    if Reg_state.is_pointer r then Slot_invalid else Slot_misc

(* The lub of two states; [None] never happens for reachable joins. *)
let join (a : t) (b : t) : t =
  let out = copy a in
  for i = 0 to 10 do
    out.regs.(i) <- Reg_state.join a.regs.(i) b.regs.(i)
  done;
  for i = 0 to n_slots - 1 do
    out.stack.(i) <- join_slot a.stack.(i) b.stack.(i)
  done;
  (* the AI engine only runs on lock/ref-free programs *)
  out.refs <- [];
  out.lock_held <- a.lock_held || b.lock_held;
  out

let widen ~(prev : t) (next : t) : t =
  let out = copy next in
  for i = 0 to 10 do
    out.regs.(i) <- Reg_state.widen ~prev:prev.regs.(i) next.regs.(i)
  done;
  out
