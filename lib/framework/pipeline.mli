(** The staged extension-load pipeline:

    {v admission -> fixup -> gate [verify | validate-signature] -> link v}

    Path A (today's architecture, paper Figure 1) gates on the in-kernel
    verifier, fronted by the world's content-addressed {!Verdict_cache};
    path B (the proposal, paper Figure 5) gates on toolchain signature
    validation only.  Both paths produce the same {!loaded} handle, run
    by {!Invoke}. *)

type loaded =
  | Ebpf_prog of { prog_id : int; prog : Ebpf.Program.t;
                   vstats : Bpf_verifier.Verifier.stats;
                   analysis : Analysis.Driver.report option
                     (** [None] when every analysis pass is off *) }
  | Rustlite_ext of { ext : Rustlite.Toolchain.signed_extension;
                      map_ids : (string * int) list }

type stage = Admission | Fixup | Analyze | Gate | Link

val stage_name : stage -> string

type error =
  | Too_many_insns of { count : int; max : int }
      (** admission: program exceeds the instruction cap *)
  | Cost_budget_exceeded of { bound : int; max : int }
      (** admission: static worst-case cost over the [max_cost] budget *)
  | Unbounded_cost
      (** admission: no static bound and the unbounded policy is [Deny] *)
  | Unknown_helper of string  (** fixup: unresolved helper relocation *)
  | Verifier_rejected of Bpf_verifier.Verifier.reject  (** gate, path A *)
  | Verifier_crashed of string  (** gate, path A: a verifier bug fired *)
  | Bad_signature  (** gate, path B *)
  | Duplicate_map of string  (** link, path B: ambiguous declared map name *)

val stage_of_error : error -> stage
val pp_error : Format.formatter -> error -> unit

val admit :
  vconfig:Bpf_verifier.Verifier.config ->
  Ebpf.Program.t -> (Ebpf.Program.t, error) result
(** Admission stage alone: cheap structural caps, before per-insn work,
    under the (staged) verifier configuration the load will publish with. *)

val fixup : Ebpf.Program.t -> (Ebpf.Program.t, error) result
(** Fixup stage alone: resolve helper-name relocations to helper ids. *)

val analyze_ebpf :
  ?use_cache:bool -> aconfig:Analysis.Driver.config -> World.t ->
  Ebpf.Program.t -> Analysis.Driver.report option
(** Analyze stage alone: run the static-analysis passes [aconfig] enables
    (resource obligations, lock discipline, guard elision) on a fixed-up
    program.  Findings are advisory — they never block a load — so the
    stage has no error arm; [None] means every pass is off.  Reports are
    cached in the world's verdict cache under (program digest,
    analysis-config signature). *)

val gate_verify :
  ?use_cache:bool ->
  vconfig:Bpf_verifier.Verifier.config ->
  aconfig:Analysis.Driver.config ->
  World.t -> Ebpf.Program.t ->
  (Bpf_verifier.Verifier.stats, error) result
(** Gate stage, path A: the verifier behind the verdict cache (default on).
    The cache key fingerprints every verdict input, so a changed config or
    bug set invalidates; verifier crashes are never cached.  Cached entries
    are epoch-tagged: a hit stored under an earlier epoch counts as a
    cross-epoch reuse ([cache.cross_epoch_reuse]). *)

val gate_validate :
  Rustlite.Toolchain.signed_extension -> (unit, error) result
(** Gate stage, path B: toolchain signature validation only. *)

val load_ebpf :
  ?use_cache:bool -> ?into:Epoch.builder -> World.t -> Ebpf.Program.t ->
  (loaded, error) result
(** Path A end to end: admission -> fixup -> cached verify gate -> link.

    With [?into], the stages read the builder's staged vconfig/aconfig and
    the link stage emits into it — the load rides the caller's epoch
    transaction and becomes visible when the caller publishes.  Without
    it, a successful load publishes its own epoch; a failed load publishes
    nothing. *)

val load_rustlite :
  World.t -> Rustlite.Toolchain.signed_extension -> (loaded, error) result
(** Path B end to end: validate-signature gate -> link (map registration). *)
