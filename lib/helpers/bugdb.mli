(** The injectable helper-bug database: each entry models one documented
    helper bug (CVE or fix commit) from the paper's Table 1 audit as a
    toggle the helper implementations consult.

    A bug is active when the simulated kernel version falls inside its
    [introduced, fixed) window, or when forced — so every demo can run the
    same program on a vulnerable and a fixed kernel. *)

module Kver = Kerndata.Kver

type window = { introduced : Kver.t; fixed : Kver.t option }

type bug = {
  key : string;     (** "hbug:..." ids cross-referenced from Kerndata.Bug_stats *)
  helper : string;
  summary : string;
  window : window;
}

val bugs : bug list

type t = {
  version : Kver.t;
  mutable forced_on : string list;
  mutable forced_off : string list;
}

val create : ?version:Kver.t -> unit -> t

val force_on : t -> string -> unit
val force_off : t -> string -> unit

val unforce_on : t -> string -> unit
(** Undo one {!force_on} of a key, leaving every other override (an
    earlier [force_on], any [force_off]) in place — the undo [force_off]
    cannot provide, since off wins over on.  Used for transient injection
    (chaos harness). *)

val find : string -> bug option

val active : t -> string -> bool
(** Forced settings win; otherwise the version window decides. *)

val active_bugs : t -> bug list
