(* Attachment registry: many loaded extensions hanging off named hook
   points (xdp, tracepoint/syscalls/sys_enter, ...), the way a real kernel
   carries a whole population of extensions at once rather than the
   one-prog-per-experiment shape the demos use.  Order matters: dispatch
   runs a hook's extensions in attach order, like the kernel's prog-array
   chains. *)

type attachment = {
  attach_id : int;
  hook : string;
  loaded : Pipeline.loaded;
}

type t = {
  mutable next_attach_id : int;
  (* hook name -> attachments, newest first (reversed on read) *)
  hooks : (string, attachment list) Hashtbl.t;
}

let create () = { next_attach_id = 1; hooks = Hashtbl.create 4 }

let attach t ~hook loaded =
  let a = { attach_id = t.next_attach_id; hook; loaded } in
  t.next_attach_id <- t.next_attach_id + 1;
  let existing = Option.value ~default:[] (Hashtbl.find_opt t.hooks hook) in
  Hashtbl.replace t.hooks hook (a :: existing);
  a

let detach t ~attach_id =
  let found = ref false in
  Hashtbl.iter
    (fun hook attachments ->
      if List.exists (fun a -> a.attach_id = attach_id) attachments then begin
        found := true;
        Hashtbl.replace t.hooks hook
          (List.filter (fun a -> a.attach_id <> attach_id) attachments)
      end)
    t.hooks;
  !found

(* The extension's own name, for health reports. *)
let name a =
  match a.loaded with
  | Pipeline.Ebpf_prog { prog; _ } -> prog.Ebpf.Program.name
  | Pipeline.Rustlite_ext { ext; _ } ->
    ext.Rustlite.Toolchain.src.Rustlite.Toolchain.name

(* The extension's content digest — the identity that survives reloads:
   re-attaching the same image after an epoch swap produces a new attach id
   but the same digest, which is how the supervisor carries breaker and
   quarantine history across epochs. *)
let digest a =
  match a.loaded with
  | Pipeline.Ebpf_prog { prog; _ } -> Ebpf.Program.digest prog
  | Pipeline.Rustlite_ext { ext; _ } -> Rustlite.Toolchain.artifact_digest ext

(* Attachments on [hook], in attach order. *)
let attached t ~hook =
  List.rev (Option.value ~default:[] (Hashtbl.find_opt t.hooks hook))

(* All hook names carrying at least one attachment, sorted — the
   deterministic view for printing. *)
let hooks t =
  Hashtbl.fold (fun h atts acc -> if atts = [] then acc else h :: acc) t.hooks []
  |> List.sort String.compare

let count t = List.fold_left (fun n h -> n + List.length (attached t ~hook:h)) 0 (hooks t)

let describe a =
  match a.loaded with
  | Pipeline.Ebpf_prog { prog_id; prog; _ } ->
    Printf.sprintf "#%d %s prog_id=%d %s" a.attach_id prog.Ebpf.Program.name
      prog_id
      (String.sub (digest a) 0 12)
  | Pipeline.Rustlite_ext { ext; _ } ->
    Printf.sprintf "#%d %s (rustlite) %s" a.attach_id
      ext.Rustlite.Toolchain.src.Rustlite.Toolchain.name
      (String.sub (digest a) 0 12)
