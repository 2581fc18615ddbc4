(** Attachment registry: many loaded extensions on named hook points.

    Dispatch order within a hook is attach order, like the kernel's
    prog-array chains. *)

type attachment = {
  attach_id : int;
  hook : string;
  loaded : Pipeline.loaded;
}

type t

val create : unit -> t

val attach : t -> hook:string -> Pipeline.loaded -> attachment

val detach : t -> attach_id:int -> bool
(** [false] if no attachment had that id. *)

val name : attachment -> string
(** The extension's own (program / crate) name, for health reports. *)

val digest : attachment -> string
(** The extension's full content digest — the identity that survives
    reloads (a re-attached image gets a new attach id, same digest).
    {!Supervisor} keys breaker/quarantine history by it. *)

val attached : t -> hook:string -> attachment list
(** In attach order. *)

val hooks : t -> string list
(** Hook names carrying at least one attachment, sorted. *)

val count : t -> int

val describe : attachment -> string
(** One line: attach id, program name/id, content-digest prefix. *)
