(* The repository benchmark.

     bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>

   Workloads (see BENCHMARK.json for why each exists):
     serve-light    sequential Serve.run, Isolate, interpreter, 3 tiny filters
     serve-compute  sequential Serve.run, JIT + fuel, heavy programs
     serve-churn    Serve.sharded (1 worker), Supervise + 1% chaos + reloads
     load-mix       cold / warm / signed loads of a seeded corpus

   Every run has a serve phase and a load phase.  The workload's own phase
   gets most of the time; the other one gets the rest, so every end-to-end
   metric is measured on every workload.  The last stdout line is the
   result object; the line before it records the run's context.  With
   --trace 1 the run is the traced one (per-layer metrics, spans written to
   .perfbench-out/).  --plant-delay-ns adds a busy wait to every serve-phase
   generator call: the self-test's planted regression. *)

type workload = {
  name : string;
  serve : Serving.kind;   (* what the serve phase serves *)
  primary_serve : bool;   (* whether serving is the workload's own phase *)
}

let workloads =
  [ { name = "serve-light"; serve = Serving.Light; primary_serve = true };
    { name = "serve-compute"; serve = Serving.Compute; primary_serve = true };
    { name = "serve-churn"; serve = Serving.Churn; primary_serve = true };
    { name = "load-mix"; serve = Serving.Light; primary_serve = false } ]

(* Share of the measured time the workload's own phase gets. *)
let primary_share = 0.85

type args = {
  workload : workload;
  seed : int;
  seconds : float;
  trace : bool;
  delay_ns : int;
}

let usage () =
  prerr_endline
    "usage: main.exe --workload <serve-light|serve-compute|serve-churn|load-mix> \
     --seed <n> --seconds <s> --trace <0|1> [--plant-delay-ns <ns>]";
  exit 2

let parse_args () =
  let rec go acc = function
    | flag :: v :: rest when String.length flag > 2 && String.sub flag 0 2 = "--" ->
      go ((String.sub flag 2 (String.length flag - 2), v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let kv = go [] (List.tl (Array.to_list Sys.argv)) in
  let get k = match List.assoc_opt k kv with Some v -> v | None -> usage () in
  let int k = match int_of_string_opt (get k) with Some n -> n | None -> usage () in
  let workload =
    match List.find_opt (fun w -> w.name = get "workload") workloads with
    | Some w -> w
    | None -> usage ()
  in
  let seconds = float_of_int (int "seconds") in
  if seconds <= 0. then usage ();
  { workload; seed = int "seed"; seconds; trace = int "trace" = 1;
    delay_ns =
      (match List.assoc_opt "plant-delay-ns" kv with
      | None -> 0
      | Some v -> ( match int_of_string_opt v with Some n -> n | None -> usage ())) }

(* ---- output ---- *)

let json_num v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v
  else Printf.sprintf "%.17g" v

let print_result ~correct ~attempted ~failed metrics =
  List.iter
    (fun (name, v, _) ->
      if not (Float.is_finite v) then begin
        Printf.eprintf "perfbench: metric %s is not a number\n" name;
        exit 1
      end)
    metrics;
  let m =
    String.concat ", "
      (List.map
         (fun (name, v, unit) ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_num v) unit)
         metrics)
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed m

let print_context a counts =
  Printf.printf
    "{\"context\": {\"workload\": %S, \"seed\": %d, \"seconds\": %g, \"trace\": %b, \
     \"commit\": %S, \"source_sha256\": %S, \"nproc\": %d, \"ocaml\": %S, %s}}\n"
    a.workload.name a.seed a.seconds a.trace
    (Option.value (Sys.getenv_opt "PERFBENCH_COMMIT") ~default:"unknown")
    (Option.value (Sys.getenv_opt "PERFBENCH_SOURCE") ~default:"unknown")
    (Domain.recommended_domain_count ()) Sys.ocaml_version
    (String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "%S: %d" k v) counts))

let heap_peak_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1048576.

(* ---- the end-to-end run ---- *)

(* Alternate the two phases' units (a serve chunk, a load pass), always
   running the one furthest behind its share of the time, so both sample
   the whole run and a burst of host contention hits them alike. *)
let interleave ~seconds ~share primary secondary =
  let deadline = Int64.add (Clock.now ()) (Int64.of_float (seconds *. 1e9)) in
  let spent_p = ref 0. and spent_s = ref 0. in
  let unit f spent =
    (* every unit starts from a collected heap, so where a major cycle
       happens to fall does not decide a unit's time or the heap peak *)
    Gc.full_major ();
    let t0 = Clock.now () in
    f ();
    spent := !spent +. Clock.since t0
  in
  unit primary spent_p;
  unit secondary spent_s;
  while Int64.compare (Clock.now ()) deadline < 0 do
    if !spent_s < (1. -. share) *. (!spent_p +. !spent_s) then unit secondary spent_s
    else unit primary spent_p
  done

let end_to_end a =
  let sc = Serving.prepare a.workload.serve ~seed:a.seed ~delay_ns:a.delay_ns in
  let lc = Loading.corpus ~seed:a.seed in
  let sa = Serving.acc a.workload.serve and la = Loading.acc lc in
  let serve () = ignore (Serving.chunk sc sa) and load () = ignore (Loading.pass lc la) in
  if a.workload.primary_serve then
    interleave ~seconds:a.seconds ~share:primary_share serve load
  else interleave ~seconds:a.seconds ~share:primary_share load serve;
  let setups = if a.workload.primary_serve then sa.Serving.setups else la.Loading.setups in
  let rate = Stats.fast_rate and time = Stats.fast_time in
  let metrics =
    [ ("events_per_s", rate sa.Serving.rates, "1/s");
      ("event_p50_us", time sa.Serving.p50s /. 1e3, "us");
      ("event_p90_us", time sa.Serving.p90s /. 1e3, "us");
      ("ok_share",
       float_of_int sa.Serving.finished /. float_of_int sa.Serving.attempted_inv,
       "share");
      ("load_cold_per_s", rate la.Loading.cold_rates, "1/s");
      ("load_cold_p50_ms", time la.Loading.cold_p50s /. 1e6, "ms");
      ("load_cold_p99_ms", time la.Loading.cold_p99s /. 1e6, "ms");
      ("load_warm_per_s", rate la.Loading.warm_rates, "1/s");
      ("load_warm_p50_us", time la.Loading.warm_p50s /. 1e3, "us");
      ("load_signed_per_s", rate la.Loading.signed_rates, "1/s");
      ("load_reject_share",
       float_of_int la.Loading.rejects /. float_of_int la.Loading.cold_loads,
       "share");
      ("setup_s", time setups, "s");
      ("heap_peak_mb", heap_peak_mb (), "MB") ]
  in
  print_context a
    [ ("events", sa.Serving.events); ("serve_chunks", sa.Serving.chunks);
      ("loads", la.Loading.loads); ("load_passes", la.Loading.passes);
      ("corpus_programs", Array.length lc.Loading.progs);
      ("setups_timed", List.length setups) ];
  let failed = (sa.Serving.mismatches + sc.Serving.pin_misses)
               * Serving.chunk_events a.workload.serve
               + la.Loading.mismatches in
  print_result ~correct:(failed = 0) ~attempted:(sa.Serving.events + la.Loading.loads)
    ~failed metrics;
  if failed > 0 then exit 1

(* ---- the traced run ---- *)

let out_dir = ".perfbench-out"

let traced a =
  if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
  let out = Filename.concat out_dir ("spans-" ^ a.workload.name ^ ".jsonl") in
  let r =
    Layers.traced ~kind:a.workload.serve ~primary_serve:a.workload.primary_serve ~seed:a.seed
      ~seconds:a.seconds ~delay_ns:a.delay_ns ~out
  in
  print_context a r.Layers.counts;
  print_result ~correct:(r.Layers.failed = 0) ~attempted:r.Layers.attempted
    ~failed:r.Layers.failed r.Layers.metrics;
  if r.Layers.failed > 0 then exit 1

let () =
  let a = parse_args () in
  if a.trace then traced a else end_to_end a
