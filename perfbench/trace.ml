(* The benchmark's own spans, recorded around the public calls it makes:
   name, start, end, parent span and a shared id per event or load.  They
   are kept in memory, reduced to per-name self time (duration minus the
   time covered by child spans) and written out when the run ends.  A span
   may stand for [n] back-to-back calls, so per-call figures divide by it. *)

type span = {
  name : string;
  group : int;    (* the event or load this span belongs to *)
  parent : int;   (* index of the enclosing span, -1 at top level *)
  n : int;        (* calls covered *)
  start : int64;
  mutable stop : int64;
}

type t = { mutable spans : span array; mutable len : int }

let create () = { spans = [||]; len = 0 }

let push t s =
  if t.len = Array.length t.spans then begin
    let bigger = Array.make (max 1024 (2 * t.len)) s in
    Array.blit t.spans 0 bigger 0 t.len;
    t.spans <- bigger
  end;
  t.spans.(t.len) <- s;
  t.len <- t.len + 1;
  t.len - 1

(* A span whose interval was measured elsewhere (an event between two
   generator stamps). *)
let record t ~group name ~start ~stop =
  ignore (push t { name; group; parent = -1; n = 1; start; stop })

let with_span t ?(parent = -1) ?(group = 0) ?(n = 1) name f =
  let i = push t { name; group; parent; n; start = Clock.now (); stop = 0L } in
  let r = f i in
  t.spans.(i).stop <- Clock.now ();
  r

let dur s = Int64.to_float (Int64.sub s.stop s.start)

type summary = { calls : int; total_ns : float; self_ns : float }

(* Self time: a span's duration minus its children's (children run inside
   the parent and one after another, so their durations do not overlap). *)
let summarize t =
  let covered = Array.make t.len 0. in
  for i = 0 to t.len - 1 do
    let s = t.spans.(i) in
    if s.parent >= 0 then covered.(s.parent) <- covered.(s.parent) +. dur s
  done;
  let tbl = Hashtbl.create 32 in
  for i = 0 to t.len - 1 do
    let s = t.spans.(i) in
    let prev =
      Option.value (Hashtbl.find_opt tbl s.name)
        ~default:{ calls = 0; total_ns = 0.; self_ns = 0. }
    in
    Hashtbl.replace tbl s.name
      { calls = prev.calls + s.n; total_ns = prev.total_ns +. dur s;
        self_ns = prev.self_ns +. dur s -. covered.(i) }
  done;
  tbl

(* Mean self time per call of [name], in microseconds (0 if never seen). *)
let self_us tbl name =
  match Hashtbl.find_opt tbl name with
  | Some s when s.calls > 0 -> s.self_ns /. float_of_int s.calls /. 1e3
  | _ -> 0.

(* One JSON object per line, start/end relative to the earliest span. *)
let write t path =
  let oc = open_out path in
  let t0 = ref Int64.max_int in
  for i = 0 to t.len - 1 do
    if Int64.compare t.spans.(i).start !t0 < 0 then t0 := t.spans.(i).start
  done;
  let t0 = !t0 in
  for i = 0 to t.len - 1 do
    let s = t.spans.(i) in
    Printf.fprintf oc
      "{\"id\":%d,\"name\":%S,\"group\":%d,\"parent\":%d,\"n\":%d,\"start_ns\":%Ld,\"end_ns\":%Ld}\n"
      i s.name s.group s.parent s.n (Int64.sub s.start t0) (Int64.sub s.stop t0)
  done;
  close_out oc
