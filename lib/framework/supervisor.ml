(* Per-extension health supervision for the serving path.

   The paper's §3 position is that what the verifier cannot promise
   statically must be enforced at runtime; this module is the piece that
   makes that enforcement *per extension* instead of per stream.  Each
   attached extension gets a circuit breaker:

     Closed --(fault_threshold faults within a window of [window]
               observations)--> Open
     Open --(cooldown elapsed on the virtual clock)--> Half_open
     Half_open --(probe finishes)--> Closed
     Half_open --(probe faults)--> Open again, cooldown doubled
     (quarantine_after trips) --> Quarantined (detached by dispatch)

   Cooldowns are measured in Vclock ns so the whole machine is
   deterministic, and the state machine is driven through [decide] /
   [observe_*] so the tests can exercise every transition without a
   serving engine in the loop.

   A "fault" is a contained kernel crash or a budget exhaustion
   (fuel / wall-clock / stack).  A language panic is a clean self-stop —
   the extension asked to stop, the guard cleaned up — so it does not
   count against the breaker. *)

type config = {
  window : int;            (* sliding window length, in observations *)
  fault_threshold : int;   (* faults within [window] that open the breaker *)
  cooldown_ns : int64;     (* base open -> half-open cooldown (Vclock ns) *)
  backoff : float;         (* cooldown multiplier per re-trip *)
  max_cooldown_ns : int64; (* backoff cap *)
  quarantine_after : int;  (* breaker trips before quarantine *)
}

let default_config =
  {
    window = 16;
    fault_threshold = 3;
    cooldown_ns = 1_000_000L (* 1 simulated ms *);
    backoff = 2.0;
    max_cooldown_ns = 1_000_000_000L;
    quarantine_after = 3;
  }

type state = Closed | Open of { until_ns : int64 } | Half_open | Quarantined

let state_to_string = function
  | Closed -> "closed"
  | Open { until_ns } -> Printf.sprintf "open(until=%Ldns)" until_ns
  | Half_open -> "half-open"
  | Quarantined -> "quarantined"

type ext = {
  (* last-seen attach id: a re-attach of the same image after an epoch
     swap rebinds the record to the new id while keeping all history *)
  mutable attach_id : int;
  name : string;
  (* content digest the record is keyed by; "" when attach-id keyed *)
  digest : string;
  mutable state : state;
  mutable trips : int;           (* times the breaker opened, cumulative *)
  mutable seq : int;             (* observations (executions + skips) *)
  mutable fault_seqs : int list; (* seqs of recent faults, newest first *)
  (* per-extension serving tallies, filled in by dispatch *)
  mutable invocations : int;
  mutable finished : int;
  mutable stopped : int;
  mutable crashed : int;
  mutable exhausted : int;
  mutable skipped : int;
  mutable ret_checksum : int64;
  mutable quarantined_at_ns : int64 option;
  (* per-extension invocation latency (Vclock ns), observed by dispatch;
     interned in the registry as "ext.<name>.ns" so it shows up in
     snapshots and feeds the health scorecard's p50/p99 *)
  lat : Telemetry.Histogram.t;
}

type t = {
  config : config;
  (* keyed by extension content digest when the caller has one (dispatch
     always does), so breaker/quarantine history survives detach/re-attach
     across epochs; attach-id keyed otherwise (unit-test convenience) *)
  exts : (string, ext) Hashtbl.t;
}

let create ?(config = default_config) () =
  { config; exts = Hashtbl.create 8 }

let key ?digest ~attach_id () =
  match digest with
  | Some d -> "digest:" ^ d
  | None -> "attach:" ^ string_of_int attach_id

let ext ?digest t ~attach_id ~name =
  let k = key ?digest ~attach_id () in
  match Hashtbl.find_opt t.exts k with
  | Some e ->
    e.attach_id <- attach_id;
    e
  | None ->
    let e =
      { attach_id; name; digest = Option.value digest ~default:"";
        state = Closed; trips = 0; seq = 0; fault_seqs = [];
        invocations = 0; finished = 0; stopped = 0; crashed = 0; exhausted = 0;
        skipped = 0; ret_checksum = 0L; quarantined_at_ns = None;
        lat = Telemetry.Registry.histogram ("ext." ^ name ^ ".ns") }
    in
    Hashtbl.add t.exts k e;
    e

let exts t =
  Hashtbl.fold (fun _ e acc -> e :: acc) t.exts []
  |> List.sort (fun a b -> compare a.attach_id b.attach_id)

(* ---- telemetry ---- *)

let tele_faults = Telemetry.Registry.counter "supervisor.faults_absorbed"
let tele_trips = Telemetry.Registry.counter "supervisor.breaker_trips"
let tele_quarantined = Telemetry.Registry.counter "supervisor.quarantined"
let tele_probes = Telemetry.Registry.counter "supervisor.probes"

(* ---- the state machine ---- *)

type decision =
  | Execute                  (* breaker closed: run normally *)
  | Probe                    (* half-open: run once to test recovery *)
  | Skip                     (* open or quarantined: do not run *)

let decide _t e ~now_ns =
  match e.state with
  | Closed -> Execute
  | Quarantined -> Skip
  | Half_open -> Probe
  | Open { until_ns } ->
    if Int64.compare now_ns until_ns >= 0 then begin
      e.state <- Half_open;
      Telemetry.Registry.bump tele_probes;
      Probe
    end
    else Skip

(* Cooldown for the [n]th trip (1-based): cooldown * backoff^(n-1), capped. *)
let cooldown_for config ~trip =
  let scaled =
    Int64.to_float config.cooldown_ns
    *. (config.backoff ** float_of_int (max 0 (trip - 1)))
  in
  let capped = min scaled (Int64.to_float config.max_cooldown_ns) in
  Int64.of_float capped

type transition =
  | No_change
  | Tripped of { until_ns : int64; trip : int }
  | Quarantine

let prune_window config e =
  e.fault_seqs <- List.filter (fun s -> s > e.seq - config.window) e.fault_seqs

let trip t e ~now_ns =
  e.trips <- e.trips + 1;
  e.fault_seqs <- [];
  Telemetry.Registry.bump tele_trips;
  if e.trips >= t.config.quarantine_after then begin
    e.state <- Quarantined;
    e.quarantined_at_ns <- Some now_ns;
    Telemetry.Registry.bump tele_quarantined;
    Telemetry.Registry.point ("supervisor.quarantined." ^ e.name)
      ~value:(Int64.of_int e.attach_id);
    Quarantine
  end
  else begin
    let until_ns = Int64.add now_ns (cooldown_for t.config ~trip:e.trips) in
    e.state <- Open { until_ns };
    Telemetry.Registry.point ("supervisor.breaker_open." ^ e.name)
      ~value:until_ns;
    Tripped { until_ns; trip = e.trips }
  end

(* A fault was observed (and contained) for [e].  Returns the breaker
   transition so the caller can detach on [Quarantine]. *)
let observe_fault t e ~now_ns =
  e.seq <- e.seq + 1;
  Telemetry.Registry.bump tele_faults;
  match e.state with
  | Quarantined -> No_change
  | Half_open ->
    (* the recovery probe failed: re-trip immediately, backoff doubled *)
    trip t e ~now_ns
  | Open _ ->
    (* not normally reachable (open extensions are skipped) *)
    No_change
  | Closed ->
    e.fault_seqs <- e.seq :: e.fault_seqs;
    prune_window t.config e;
    if List.length e.fault_seqs >= t.config.fault_threshold then
      trip t e ~now_ns
    else No_change

(* A clean execution: a successful half-open probe closes the breaker. *)
let observe_ok _t e ~now_ns:_ =
  e.seq <- e.seq + 1;
  match e.state with
  | Half_open ->
    e.state <- Closed;
    e.fault_seqs <- []
  | Closed | Open _ | Quarantined -> ()

let observe_skip e =
  e.seq <- e.seq + 1;
  e.skipped <- e.skipped + 1

(* ---- reporting ---- *)

type health = {
  attach_id : int;
  name : string;
  digest : string;  (* "" when the record was attach-id keyed *)
  state : state;
  trips : int;
  invocations : int;
  finished : int;
  stopped : int;
  crashed : int;
  exhausted : int;
  skipped : int;
  ret_checksum : int64;
  quarantined : bool;
  p50_ns : int64;        (* median invocation latency (Vclock ns) *)
  p99_ns : int64;        (* tail invocation latency (Vclock ns) *)
  crash_rate : float;    (* crashed / invocations *)
  exhaust_rate : float;  (* exhausted / invocations *)
}

let health_of_ext (e : ext) =
  let rate n = if e.invocations = 0 then 0.0 else float_of_int n /. float_of_int e.invocations in
  {
    attach_id = e.attach_id;
    name = e.name;
    digest = e.digest;
    state = e.state;
    trips = e.trips;
    invocations = e.invocations;
    finished = e.finished;
    stopped = e.stopped;
    crashed = e.crashed;
    exhausted = e.exhausted;
    skipped = e.skipped;
    ret_checksum = e.ret_checksum;
    quarantined = (e.state = Quarantined);
    p50_ns = Telemetry.Histogram.quantile e.lat 0.50;
    p99_ns = Telemetry.Histogram.quantile e.lat 0.99;
    crash_rate = rate e.crashed;
    exhaust_rate = rate e.exhausted;
  }

let healths t = List.map health_of_ext (exts t)

(* ---- merging (sharded serving) ----

   Each shard runs its own supervisor over the same attached extensions;
   at the barrier the per-shard scorecards fold into one, keyed by content
   digest — the same identity that makes breaker history survive
   re-attach.  Records without a digest (attach-id keyed, unit tests)
   merge by name + attach id instead.

   Tallies sum exactly.  [ret_checksum] is combined by Int64 addition —
   order-insensitive, so the merged value is shard-count independent, but
   it is NOT the sequential stream checksum (Serve reconstructs that one
   exactly from per-event records).  Latency quantiles merge as max — the
   conservative bound available once shards have reduced their histograms
   to two points.  State merges to the worst across shards
   (Quarantined > Open > Half_open > Closed), trips sum, and the rates are
   recomputed from the merged tallies. *)

let state_severity = function
  | Closed -> 0
  | Half_open -> 1
  | Open _ -> 2
  | Quarantined -> 3

let worst_state a b = if state_severity b > state_severity a then b else a

let merge_two (a : health) (b : health) =
  let invocations = a.invocations + b.invocations in
  let crashed = a.crashed + b.crashed in
  let exhausted = a.exhausted + b.exhausted in
  let rate n =
    if invocations = 0 then 0.0 else float_of_int n /. float_of_int invocations
  in
  let state = worst_state a.state b.state in
  {
    attach_id = max a.attach_id b.attach_id;
    name = a.name;
    digest = a.digest;
    state;
    trips = a.trips + b.trips;
    invocations;
    finished = a.finished + b.finished;
    stopped = a.stopped + b.stopped;
    crashed;
    exhausted;
    skipped = a.skipped + b.skipped;
    ret_checksum = Int64.add a.ret_checksum b.ret_checksum;
    quarantined = (state = Quarantined);
    p50_ns = (if Int64.compare a.p50_ns b.p50_ns > 0 then a.p50_ns else b.p50_ns);
    p99_ns = (if Int64.compare a.p99_ns b.p99_ns > 0 then a.p99_ns else b.p99_ns);
    crash_rate = rate crashed;
    exhaust_rate = rate exhausted;
  }

let merge_key (h : health) =
  if h.digest <> "" then "digest:" ^ h.digest
  else "attach:" ^ string_of_int h.attach_id ^ ":" ^ h.name

let merge_healths (per_shard : health list list) =
  let merged : (string, health) Hashtbl.t = Hashtbl.create 8 in
  let order = ref [] in
  List.iter
    (List.iter (fun h ->
         let k = merge_key h in
         match Hashtbl.find_opt merged k with
         | Some prev -> Hashtbl.replace merged k (merge_two prev h)
         | None ->
           order := k :: !order;
           Hashtbl.replace merged k h))
    per_shard;
  List.rev_map (fun k -> Hashtbl.find merged k) !order
  |> List.sort (fun a b ->
         match compare a.attach_id b.attach_id with
         | 0 -> String.compare a.name b.name
         | c -> c)

let pp_health ppf h =
  Format.fprintf ppf
    "#%d %-16s %-10s inv=%d ok=%d stop=%d crash=%d exhaust=%d skip=%d \
     trips=%d p50=%Ldns p99=%Ldns checksum=%016Lx"
    h.attach_id h.name (state_to_string h.state) h.invocations h.finished
    h.stopped h.crashed h.exhausted h.skipped h.trips h.p50_ns h.p99_ns
    h.ret_checksum
