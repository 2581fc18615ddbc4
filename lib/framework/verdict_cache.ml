(* The content-addressed verdict cache that sits in front of the verify gate.

   The in-kernel verifier's DFS is the expensive step of the paper's Figure 1
   load path — exponential in the worst case (§2.1) — yet a kernel servicing
   heavy extension traffic sees the *same* program images over and over
   (fleet rollouts load one image on every node; per-CPU attach loads one
   image per core).  Verification is a pure function of

     (program content, verifier configuration, referenced map shapes,
      kernel version, injected bug set)

   so its verdict can be memoized under a key that covers every input.  A
   repeat load of an identical program then skips the DFS entirely and
   replays the recorded verdict — including the stats, so a cache hit is
   observationally identical to a fresh verification.

   Correctness hinges on the key covering *all* the inputs.  The verifier
   configuration itself changes only by publishing an epoch
   (World.set_vconfig), but two inputs are still mutated in place: the
   Vbug toggles nested inside it, which are shared across epochs, and the
   world's Bugdb injection sets.  So the fingerprint is recomputed from
   live values on every lookup: flip a Vbug field (or force a helper bug
   on) and the next load misses rather than replaying a stale accept.
   Verifier *crashes* (an injected verifier bug killing the verifier
   itself) are deliberately not cached: each crashing load oopses the
   kernel as a side effect and must keep doing so. *)

module Bugdb = Helpers.Bugdb
module Bpf_map = Maps.Bpf_map
module Kver = Kerndata.Kver
module Verifier = Bpf_verifier.Verifier
module Vbug = Bpf_verifier.Vbug
module Program = Ebpf.Program

type verdict = (Verifier.stats, Verifier.reject) result

type t = {
  (* verdict plus the epoch it was stored under: a hit from an earlier
     epoch is a *cross-epoch reuse* — the payoff of content-addressed
     caching under hot reload (same image, new epoch, no re-verify) *)
  tbl : (string, verdict * int) Hashtbl.t;
  mutable hits : int;
  mutable misses : int;
  mutable cross_epoch : int;
  (* static-analysis reports, cached alongside verdicts: same content
     addressing, separate table and tallies so analysis caching cannot
     perturb verdict hit-rate measurements *)
  atbl : (string, Analysis.Driver.report) Hashtbl.t;
  mutable ahits : int;
  mutable amisses : int;
  (* digest -> fingerprint of the last lookup, to distinguish a cold miss
     (never saw this program) from an invalidation (same program, changed
     config/bug-set/map shapes) *)
  last_fp : (string, string) Hashtbl.t;
  mutable invalidations : int;
}

let create () =
  { tbl = Hashtbl.create 16; hits = 0; misses = 0; cross_epoch = 0;
    atbl = Hashtbl.create 16; ahits = 0; amisses = 0;
    last_fp = Hashtbl.create 16; invalidations = 0 }

let tele_hit = Telemetry.Registry.counter "cache.hit"
let tele_miss = Telemetry.Registry.counter "cache.miss"
let tele_invalidated = Telemetry.Registry.counter "cache.invalidated"
let tele_cross_epoch = Telemetry.Registry.counter "cache.cross_epoch_reuse"

(* The analysis signature is ~2 KB and the same text on every load under
   one aconfig, so its hash is kept for the last text seen; a hash is a
   pure function of the text, and the text check is a pointer compare
   when the caller passes the memoised {!Analysis.Driver.config_signature}.
   An immutable pair in an atomic cell: racing domains at worst hash
   twice. *)
let last_signature_hash = Atomic.make None

let signature_hash s =
  match Atomic.get last_signature_hash with
  | Some (s', h) when s == s' || String.equal s s' -> h
  | _ ->
    let h = Hash.Sha256.hex_digest s in
    Atomic.set last_signature_hash (Some (s, h));
    h

let serialize_map_def (d : Bpf_map.def) =
  Printf.sprintf "(map %s %s %d %d %d %s)" d.Bpf_map.name
    (Bpf_map.kind_to_string d.Bpf_map.kind)
    d.Bpf_map.key_size d.Bpf_map.value_size d.Bpf_map.max_entries
    (match d.Bpf_map.lock_off with None -> "-" | Some o -> string_of_int o)

(* Canonical fingerprint of everything besides program content that can
   change a verdict.  Built from live values, hashed to a fixed-size key
   component. *)
let fingerprint ?(analysis = "") ~(config : Verifier.config) ~(bugs : Bugdb.t)
    ~(map_def : int -> Bpf_map.def option) (prog : Program.t) : string =
  let b = Buffer.create 256 in
  let add fmt = Printf.ksprintf (fun s -> Buffer.add_string b s; Buffer.add_char b '\n') fmt in
  add "kver %s" (Kver.to_string config.Verifier.version);
  (* the static-analysis configuration rides along: toggling a pass (or a
     helper safety flag) must not replay load results computed without it *)
  if analysis <> "" then add "analysis %s" (signature_hash analysis);
  add "max_insns %d" config.Verifier.max_insns;
  add "insn_budget %d" config.Verifier.insn_budget;
  add "max_states %d" config.Verifier.max_states_per_point;
  add "allow_loops %b" config.Verifier.allow_loops;
  add "track_ringbuf_refs %b" config.Verifier.track_ringbuf_refs;
  add "prune %b" config.Verifier.prune;
  add "allow_ptr_leaks %b" config.Verifier.allow_ptr_leaks;
  add "reject_speculative_oob %b" config.Verifier.reject_speculative_oob;
  add "verbose %b" config.Verifier.verbose;
  (* the injected verifier-bug set: live mutable toggles *)
  add "vbugs %s" (String.concat "," (Vbug.keys config.Verifier.bugs));
  (* the helper-bug injection set: the kernel the verdict was issued for *)
  add "bugdb %s %s"
    (Kver.to_string bugs.Bugdb.version)
    (String.concat ","
       (List.sort String.compare
          (List.map (fun (bug : Bugdb.bug) -> bug.Bugdb.key) (Bugdb.active_bugs bugs))));
  (* the shapes of every map the program references: a map recreated with a
     different value_size must not replay the old bounds verdict *)
  List.iter
    (fun fd ->
      match map_def fd with
      | Some d -> add "fd %d %s" fd (serialize_map_def d)
      | None -> add "fd %d missing" fd)
    (Program.referenced_maps prog);
  Hash.Sha256.hex_digest (Buffer.contents b)

let key ~digest ~fingerprint = digest ^ ":" ^ fingerprint

let split_key k =
  match String.index_opt k ':' with
  | Some i -> (String.sub k 0 i, String.sub k (i + 1) (String.length k - i - 1))
  | None -> (k, "")

let find ?(epoch = 0) t k =
  let digest, fp = split_key k in
  let r =
    match Hashtbl.find_opt t.tbl k with
    | Some (v, stored_epoch) ->
      t.hits <- t.hits + 1;
      Telemetry.Registry.bump tele_hit;
      if stored_epoch < epoch then begin
        t.cross_epoch <- t.cross_epoch + 1;
        Telemetry.Registry.bump tele_cross_epoch
      end;
      Some v
    | None ->
      t.misses <- t.misses + 1;
      Telemetry.Registry.bump tele_miss;
      (* a miss for a digest whose previous lookup used a different
         fingerprint means some fingerprinted input changed under us *)
      (match Hashtbl.find_opt t.last_fp digest with
      | Some prev when prev <> fp ->
        t.invalidations <- t.invalidations + 1;
        Telemetry.Registry.bump tele_invalidated
      | _ -> ());
      None
  in
  Hashtbl.replace t.last_fp digest fp;
  r

let store ?(epoch = 0) t k v = Hashtbl.replace t.tbl k (v, epoch)

(* Analysis reports are keyed by (program digest, analysis-config
   signature): the passes read nothing else, so nothing else can
   invalidate them. *)
let analysis_key ~digest ~signature = digest ^ ":" ^ signature_hash signature

let find_analysis t k =
  match Hashtbl.find_opt t.atbl k with
  | Some r ->
    t.ahits <- t.ahits + 1;
    Some r
  | None ->
    t.amisses <- t.amisses + 1;
    None

let store_analysis t k r = Hashtbl.replace t.atbl k r

let clear t = Hashtbl.reset t.tbl; Hashtbl.reset t.atbl; Hashtbl.reset t.last_fp
let size t = Hashtbl.length t.tbl
let hits t = t.hits
let misses t = t.misses
let invalidations t = t.invalidations
let cross_epoch_reuse t = t.cross_epoch
let analysis_size t = Hashtbl.length t.atbl
let analysis_hits t = t.ahits
let analysis_misses t = t.amisses
