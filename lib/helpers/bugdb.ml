(* The injectable helper-bug database.

   Table 1's point is that helper bugs are plentiful and recurring; each
   entry here models one documented bug (CVE or fix commit) as a toggle the
   helper implementations consult.  A toggle is on when the simulated kernel
   version lies in the bug's [introduced, fixed) window, or when forced by
   an override — so the bench harness can demonstrate the failure on a
   vulnerable kernel and its absence on a fixed one, executably. *)

module Kver = Kerndata.Kver

type window = { introduced : Kver.t; fixed : Kver.t option }

type bug = {
  key : string;              (* "hbug:..." ids referenced from Bug_stats *)
  helper : string;
  summary : string;
  window : window;
}

let bugs =
  [
    { key = "hbug:cve-2022-2785-sys-bpf"; helper = "bpf_sys_bpf";
      summary = "no deep inspection of union argument: NULL field dereferenced (CVE-2022-2785)";
      window = { introduced = Kver.V5_15; fixed = None } };
    { key = "hbug:task-storage-null-owner"; helper = "bpf_task_storage_get";
      summary = "missing NULL check on owner task pointer (fix 1a9c72ad)";
      window = { introduced = Kver.V5_10; fixed = Some Kver.V5_15 } };
    { key = "hbug:sk-lookup-request-sock-leak"; helper = "bpf_sk_lookup_tcp";
      summary = "request_sock reference not released (fix 3046a827)";
      window = { introduced = Kver.V4_20; fixed = Some Kver.V6_1 } };
    { key = "hbug:get-task-stack-no-ref"; helper = "bpf_get_task_stack";
      summary = "task stack used without holding a reference (fix 06ab134c)";
      window = { introduced = Kver.V5_10; fixed = Some Kver.V5_15 } };
    { key = "hbug:array-map-32bit-overflow"; helper = "bpf_map_lookup_elem";
      summary = "32-bit index*value_size overflow on huge arrays (fix 87ac0d60)";
      window = { introduced = Kver.V3_18; fixed = Some Kver.V6_1 } };
    { key = "hbug:ringbuf-double-submit"; helper = "bpf_ringbuf_submit";
      summary = "double submit frees a record twice (use-after-free class)";
      window = { introduced = Kver.V5_10; fixed = Some Kver.V5_15 } };
    { key = "hbug:probe-read-size-unchecked"; helper = "bpf_probe_read_kernel";
      summary = "size not clamped to destination buffer (out-of-bounds class)";
      window = { introduced = Kver.V5_4; fixed = Some Kver.V5_10 } };
    { key = "hbug:nested-bpf-loop-hang"; helper = "bpf_loop";
      summary = "nested loops give linear control over runtime: RCU stalls (§2.2)";
      window = { introduced = Kver.V5_15; fixed = None } };
  ]

type t = {
  version : Kver.t;
  mutable forced_on : string list;
  mutable forced_off : string list;
}

let create ?(version = Kver.V5_18) () = { version; forced_on = []; forced_off = [] }

let force_on t key = t.forced_on <- key :: t.forced_on
let force_off t key = t.forced_off <- key :: t.forced_off

(* Undo one [force_on] of [key]: drop a single occurrence and leave every
   other override in place.  [force_off] cannot undo a [force_on] (off
   wins), and a transient injection — the chaos harness arming a bug for
   one event — must not take away an override its caller set. *)
let unforce_on t key =
  let rec drop = function
    | [] -> []
    | k :: rest -> if String.equal k key then rest else k :: drop rest
  in
  t.forced_on <- drop t.forced_on

let find key = List.find_opt (fun b -> String.equal b.key key) bugs

let active t key =
  if List.mem key t.forced_off then false
  else if List.mem key t.forced_on then true
  else
    match find key with
    | None -> false
    | Some b ->
      Kver.(b.window.introduced <= t.version)
      && (match b.window.fixed with
         | None -> true
         | Some fixed -> Kver.compare t.version fixed < 0)

let active_bugs t = List.filter (fun b -> active t b.key) bugs
