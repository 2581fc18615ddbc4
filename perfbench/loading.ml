(* The load phase: a seeded corpus through the staged pipeline in passes.
   Each pass sets up a fresh world and loads
   1. cold: every corpus program once (verdict-cache misses);
   2. warm: the same corpus again (every gate a cache hit);
   3. signed: Rustlite extensions through path B (signature validation).

   The corpus is [Fuzz.Gen] programs, three Clean to one Adversarial,
   plus a fixed set of costly shapes (see [cheap] below).  Its verdicts are fixed
   by construction and checked load by load: every Clean program and
   every heavy shape must be accepted; an Adversarial program must be
   rejected exactly when it carries a chunk the verifier refuses (a leak,
   an unchecked map-value dereference or an out-of-frame store). *)

open Untenable
module Pipeline = Framework.Pipeline
module Gen = Fuzz.Gen

let clean_count = 300
let adversarial_rejected = 75
let adversarial_accepted = 25
let signed_count = 256

let rejecting_chunks = [ "leak"; "null_deref"; "oob_stack" ]

let expect_reject (s : Gen.shape) =
  List.exists (fun (c : Gen.chunk) -> List.mem c.Gen.kind rejecting_chunks) s.Gen.chunks

type corpus = {
  progs : (Ebpf.Program.t * bool) array;  (* program, expected to load *)
  signed : Rustlite.Toolchain.signed_extension array;
  env : Gen.env;
}

(* Per-program verify cost grows with loop trips and with diamonds in a
   row, and a few such programs would otherwise decide a pass's total, so
   which ones a seed happened to draw would decide the run.  The seeded
   programs are therefore loop-free with at most one diamond; the costly
   shapes are a fixed set: loop-bearing Clean programs drawn from one
   constant seed, and the exp-vcost shapes. *)
let count_kind (s : Gen.shape) k =
  List.length (List.filter (fun (c : Gen.chunk) -> c.Gen.kind = k) s.Gen.chunks)

let cheap s = count_kind s "loop" = 0 && count_kind s "diamond" <= 1
let looped s = count_kind s "loop" >= 1 && count_kind s "loop" <= 2 && count_kind s "diamond" <= 1

let fixed_seed = 0x10AD
let fixed_count = 20

(* Draw shapes until each class has its quota; duplicate images (same
   content digest) are skipped so every cold load is a cache miss. *)
let corpus ~seed =
  let _, env = Fuzz.Oracle.setup_world () in
  let seen = Hashtbl.create 512 in
  (* quotas per chunk count too, so every seed draws the same mix of
     program sizes *)
  let take rng dist ~want n =
    let out = ref [] and got = ref 0 in
    let per_size = Hashtbl.create 8 in
    let sizes = 6 (* Gen.generate draws 2 to 7 chunks *) in
    while !got < n do
      let s = Gen.generate ~env ~dist rng in
      let size = List.length s.Gen.chunks in
      let have = Option.value (Hashtbl.find_opt per_size size) ~default:0 in
      if want s && have * sizes < n then begin
        Hashtbl.replace per_size size (have + 1);
        let p =
          Gen.program_of_shape_exn
            ~name:(Printf.sprintf "p%d" (Hashtbl.length seen)) s
        in
        let d = Ebpf.Program.digest p in
        if not (Hashtbl.mem seen d) then begin
          Hashtbl.add seen d ();
          out := (p, not (expect_reject s)) :: !out;
          incr got
        end
      end
    done;
    Array.of_list (List.rev !out)
  in
  let fixed = take (Fuzz.Rng.create (Int64.of_int fixed_seed)) Gen.Clean ~want:looped fixed_count in
  let rng = Fuzz.Rng.create (Int64.of_int seed) in
  let clean = take rng Gen.Clean ~want:cheap clean_count in
  let adv =
    Array.append
      (take rng Gen.Adversarial ~want:(fun s -> cheap s && expect_reject s)
         adversarial_rejected)
      (take rng Gen.Adversarial ~want:(fun s -> cheap s && not (expect_reject s))
         adversarial_accepted)
  in
  (* three Clean to one Adversarial, the costly shapes spread among them *)
  let costly =
    Array.append fixed (Array.of_list (List.map (fun p -> (p, true)) Population.heavy))
  in
  let every = Array.length adv / Array.length costly in
  let progs =
    List.concat
      (List.init (Array.length adv) (fun i ->
           (if i mod every = 0 && i / every < Array.length costly then
              [ costly.(i / every) ]
            else [])
           @ [ clean.(3 * i); clean.((3 * i) + 1); clean.((3 * i) + 2); adv.(i) ]))
  in
  let signed =
    Array.init signed_count (fun k ->
        Population.rustlite_counter ~bump:(1 + k + (seed land 0xff))
          (Printf.sprintf "signed%d" k))
  in
  { progs = Array.of_list progs; signed; env }

(* ---- measurement ---- *)

type acc = {
  cold : float array;                (* this pass's per-load ns *)
  warm : float array;
  mutable cold_p50s : float list;    (* per-pass load latency quantiles, ns *)
  mutable cold_p99s : float list;
  mutable warm_p50s : float list;
  mutable cold_rates : float list;   (* per-pass loads/s *)
  mutable warm_rates : float list;
  mutable signed_rates : float list;
  mutable setups : float list;       (* per-pass world set-up, s *)
  mutable loads : int;
  mutable rejects : int;             (* cold-pass rejects *)
  mutable cold_loads : int;
  mutable mismatches : int;          (* loads whose verdict missed *)
  mutable passes : int;
}

let acc c =
  { cold = Array.make (Array.length c.progs) 0.;
    warm = Array.make (Array.length c.progs) 0.; cold_p50s = []; cold_p99s = [];
    warm_p50s = []; cold_rates = [];
    warm_rates = []; signed_rates = []; setups = []; loads = 0; rejects = 0;
    cold_loads = 0; mismatches = 0; passes = 0 }

let fresh_world c =
  let world, env = Fuzz.Oracle.setup_world () in
  if env <> c.env then failwith "load-mix: world topology changed between passes";
  world

(* One pass.  [on_load] wraps each eBPF load (the traced run swaps in its
   stage-by-stage replay); it returns the load's verdict. *)
let pass ?(on_load = fun ~cold:_ world prog -> Pipeline.load_ebpf world prog) c a =
  let t0 = Clock.now () in
  let world = fresh_world c in
  a.setups <- (Clock.since t0 /. 1e9) :: a.setups;
  let sweep ~cold res =
    let total = ref 0. in
    Array.iteri
      (fun i (prog, ok) ->
        let t = Clock.now () in
        let r = on_load ~cold world prog in
        let dt = Clock.since t in
        total := !total +. dt;
        res.(i) <- dt;
        a.loads <- a.loads + 1;
        let loaded = Result.is_ok r in
        if loaded <> ok then a.mismatches <- a.mismatches + 1;
        if cold then begin
          a.cold_loads <- a.cold_loads + 1;
          if not loaded then a.rejects <- a.rejects + 1
        end)
      c.progs;
    float_of_int (Array.length c.progs) /. (!total /. 1e9)
  in
  let len = Array.length c.progs in
  a.cold_rates <- sweep ~cold:true a.cold :: a.cold_rates;
  (match Stats.quantiles a.cold ~len [ 0.5; 0.99 ] with
  | [ p50; p99 ] ->
    a.cold_p50s <- p50 :: a.cold_p50s;
    a.cold_p99s <- p99 :: a.cold_p99s
  | _ -> assert false);
  a.warm_rates <- sweep ~cold:false a.warm :: a.warm_rates;
  a.warm_p50s <- Stats.quantiles a.warm ~len [ 0.5 ] @ a.warm_p50s;
  let total = ref 0. in
  Array.iter
    (fun ext ->
      let t = Clock.now () in
      let r = Pipeline.load_rustlite world ext in
      total := !total +. Clock.since t;
      a.loads <- a.loads + 1;
      if Result.is_error r then a.mismatches <- a.mismatches + 1)
    c.signed;
  a.signed_rates <-
    (float_of_int (Array.length c.signed) /. (!total /. 1e9)) :: a.signed_rates;
  a.passes <- a.passes + 1;
  world
