(* The differential fuzzing subsystem: generator validity (every emitted
   shape assembles into a CFG-valid program), PRNG determinism, corpus
   round-trip and error discipline, oracle conformance on the unmodified
   tree, and the acceptance property — a planted JIT branch bug must be
   caught by the oracle and shrunk to a small counterexample. *)

open Untenable
module Rng = Fuzz.Rng
module Gen = Fuzz.Gen
module Corpus = Fuzz.Corpus
module Oracle = Fuzz.Oracle
module Shrink = Fuzz.Shrink
module Driver = Fuzz.Driver

let dists = [ Gen.Clean; Gen.Adversarial; Gen.Hang ]

(* ---------------- rng ---------------- *)

let test_rng_deterministic () =
  let a = Rng.create 99L and b = Rng.create 99L in
  for i = 1 to 100 do
    Alcotest.(check int64)
      (Printf.sprintf "draw %d" i)
      (Rng.next a) (Rng.next b)
  done;
  let c = Rng.create 100L in
  Alcotest.(check bool) "different seed, different stream" true
    (Rng.next (Rng.create 99L) <> Rng.next c)

let test_rng_bounds () =
  let t = Rng.create 5L in
  for _ = 1 to 1_000 do
    let v = Rng.int t 7 in
    Alcotest.(check bool) "int in [0,7)" true (v >= 0 && v < 7);
    let r = Rng.range t 3 9 in
    Alcotest.(check bool) "range inclusive" true (r >= 3 && r <= 9)
  done;
  let w = Rng.weighted t [ (1, `A); (0, `B) ] in
  Alcotest.(check bool) "zero weight never picked" true (w = `A)

(* ---------------- generator ---------------- *)

(* Every shape the grammar emits must assemble: chunks are self-contained,
   so no distribution and no seed may produce a dangling label or a
   fall-off-the-end program. *)
let test_generator_emits_valid_programs () =
  List.iter
    (fun dist ->
      let rng = Rng.create 123L in
      for i = 1 to 200 do
        let shape = Gen.generate ~dist rng in
        match Gen.program_of_shape shape with
        | Ok p ->
          Alcotest.(check int)
            (Printf.sprintf "%s #%d insn count" (Gen.dist_to_string dist) i)
            (Gen.insn_count shape)
            (Array.length p.Ebpf.Program.insns)
        | Error msg ->
          Alcotest.failf "%s #%d does not assemble: %s"
            (Gen.dist_to_string dist) i msg
      done)
    dists

let test_generator_deterministic () =
  let digest_stream seed =
    let rng = Rng.create seed in
    List.init 50 (fun _ ->
        Ebpf.Program.digest
          (Gen.program_of_shape_exn (Gen.generate ~dist:Gen.Clean rng)))
  in
  Alcotest.(check (list string)) "same seed, same programs"
    (digest_stream 7L) (digest_stream 7L)

let test_generator_distributions_differ () =
  (* hang shapes must actually exhaust the oracle's fuel budget somewhere,
     so the distribution knob is not cosmetic: at least one hang chunk
     kind appears in a short stream *)
  let rng = Rng.create 3L in
  let kinds =
    List.concat_map
      (fun _ -> List.map (fun c -> c.Gen.kind) (Gen.generate ~dist:Gen.Hang rng).Gen.chunks)
      (List.init 20 Fun.id)
  in
  Alcotest.(check bool) "hang chunks present" true
    (List.exists
       (fun k -> List.mem k [ "big_loop"; "data_loop"; "spin" ])
       kinds)

(* ---------------- corpus ---------------- *)

let tmp_corpus () =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ()) "untenable-fuzz-test"
  in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  dir

let test_corpus_roundtrip () =
  let rng = Rng.create 11L in
  let dir = tmp_corpus () in
  List.iter
    (fun dist ->
      let p = Gen.program_of_shape_exn (Gen.generate ~dist rng) in
      let path = Corpus.save ~dir p in
      match Corpus.load path with
      | Error e -> Alcotest.failf "reload failed: %s" e
      | Ok q ->
        Alcotest.(check string)
          (Gen.dist_to_string dist ^ " digest survives")
          (Ebpf.Program.digest p) (Ebpf.Program.digest q))
    dists

let test_corpus_error_discipline () =
  let err = function Error e -> e | Ok _ -> Alcotest.fail "expected Error" in
  Alcotest.(check bool) "missing file" true
    (String.length (err (Corpus.load "/nonexistent/x.fuzz")) > 0);
  Alcotest.(check bool) "bad header" true
    (String.length (err (Corpus.of_string "nonsense\n")) > 0);
  let p =
    Gen.program_of_shape_exn (Gen.generate ~dist:Gen.Clean (Rng.create 1L))
  in
  (match String.split_on_char '\n' (Corpus.to_string p) with
  | magic :: ty :: name :: hex :: rest ->
    let rejoin l = String.concat "\n" l in
    Alcotest.(check bool) "truncated" true
      (String.length (err (Corpus.of_string (rejoin [ magic; ty ]))) > 0);
    Alcotest.(check bool) "unknown prog type" true
      (String.length
         (err (Corpus.of_string (rejoin (magic :: "martian" :: name :: hex :: rest))))
      > 0);
    Alcotest.(check bool) "odd hex" true
      (String.length
         (err
            (Corpus.of_string
               (rejoin (magic :: ty :: name :: ("a" ^ hex) :: rest))))
      > 0);
    Alcotest.(check bool) "bad hex digit" true
      (String.length
         (err
            (Corpus.of_string
               (rejoin (magic :: ty :: name :: ("zz" ^ hex) :: rest))))
      > 0)
  | _ -> Alcotest.fail "corpus text did not split");
  (* Driver.replay surfaces the same errors (the CLI turns them into
     exit 1) *)
  match Driver.replay "/nonexistent/x.fuzz" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "replay of a missing file must error"

(* ---------------- oracle conformance ---------------- *)

let counter name =
  Telemetry.Counter.value (Telemetry.Registry.counter name)

(* On the unmodified tree, every execution mode agrees on every generated
   program — and the run is visible in telemetry.  Seed 0xF00D with 500
   programs is the pinned conformance gate. *)
let test_oracle_conformance () =
  List.iter
    (fun (seed, budget) ->
      let before = counter "fuzz.programs_generated" in
      let r = Driver.run ~seed ~budget ~matrix:"quick" () in
      Alcotest.(check int) "all programs generated" budget r.Driver.programs;
      Alcotest.(check (list string)) "no divergences"
        []
        (List.map
           (fun f -> Format.asprintf "%a" Driver.pp_finding f)
           r.Driver.findings);
      Alcotest.(check int) "fuzz.programs_generated bumped" (before + budget)
        (counter "fuzz.programs_generated"))
    [ (17L, 80); (0xF00DL, 500) ]

let test_oracle_full_matrix_conformance () =
  let r = Driver.run ~seed:23L ~budget:25 ~matrix:"full" () in
  Alcotest.(check int) "all programs generated" 25 r.Driver.programs;
  Alcotest.(check int) "no divergences" 0 (List.length r.Driver.findings)

let test_unknown_matrix_rejected () =
  match Driver.run ~matrix:"martian" ~budget:1 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "unknown matrix accepted"

(* ---------------- the acceptance property ---------------- *)

(* Plant the historical JIT backward-branch bug via Bugdb force_on: the
   oracle must catch it, the shrinker must reduce the counterexample to
   <= 10 instructions, the corpus must hold a replayable reproduction,
   and the telemetry counters must record all of it, at two pinned
   seeds. *)
let planted_jit_bug_caught_and_shrunk seed =
  let dir = tmp_corpus () in
  let div_before = counter "fuzz.divergences" in
  let steps_before = counter "fuzz.shrink_steps" in
  let r =
    Driver.run ~seed ~budget:60 ~matrix:"quick"
      ~plant:[ Oracle.jit_branch_bug_key ] ~corpus_dir:dir ()
  in
  (match r.Driver.findings with
  | [] -> Alcotest.fail "planted JIT branch bug was not caught"
  | f :: _ ->
    Alcotest.(check bool)
      (Printf.sprintf "shrunk to %d insns (<= 10)" f.Driver.shrunk.Shrink.insns)
      true
      (f.Driver.shrunk.Shrink.insns <= 10);
    Alcotest.(check bool) "shrinking did work" true
      (f.Driver.shrunk.Shrink.steps > 0);
    (* the divergence names the JIT leg, not some unrelated pair *)
    Alcotest.(check string) "invoke group diverged" "invoke"
      f.Driver.divergence.Oracle.group;
    (* the persisted counterexample replays: diverges with the bug
       planted, conforms without *)
    match f.Driver.corpus_path with
    | None -> Alcotest.fail "no corpus file written"
    | Some path -> (
      (match Driver.replay ~plant:[ Oracle.jit_branch_bug_key ] path with
      | Ok (Some _) -> ()
      | Ok None -> Alcotest.fail "replay with planted bug did not diverge"
      | Error e -> Alcotest.failf "replay failed: %s" e);
      match Driver.replay path with
      | Ok None -> ()
      | Ok (Some d) ->
        Alcotest.failf "clean replay diverged: %a" Oracle.pp_divergence d
      | Error e -> Alcotest.failf "clean replay failed: %s" e));
  Alcotest.(check bool) "fuzz.divergences bumped" true
    (counter "fuzz.divergences" > div_before);
  Alcotest.(check bool) "fuzz.shrink_steps bumped" true
    (counter "fuzz.shrink_steps" > steps_before)

let test_planted_jit_bug_caught_and_shrunk () =
  List.iter planted_jit_bug_caught_and_shrunk [ 42L; 0xF00DL ]

(* Shrinking is deterministic: same seed, same planted bug, same minimal
   program. *)
let test_shrink_deterministic () =
  let go () =
    match
      (Driver.run ~seed:42L ~budget:60 ~matrix:"quick"
         ~plant:[ Oracle.jit_branch_bug_key ] ())
        .Driver.findings
    with
    | f :: _ -> Ebpf.Program.digest f.Driver.shrunk.Shrink.program
    | [] -> Alcotest.fail "bug not caught"
  in
  Alcotest.(check string) "same minimal counterexample" (go ()) (go ())

let suite =
  [
    Alcotest.test_case "rng is deterministic" `Quick test_rng_deterministic;
    Alcotest.test_case "rng bounds" `Quick test_rng_bounds;
    Alcotest.test_case "generator emits valid programs" `Quick
      test_generator_emits_valid_programs;
    Alcotest.test_case "generator is deterministic" `Quick
      test_generator_deterministic;
    Alcotest.test_case "hang distribution has hang chunks" `Quick
      test_generator_distributions_differ;
    Alcotest.test_case "corpus round-trip" `Quick test_corpus_roundtrip;
    Alcotest.test_case "corpus error discipline" `Quick
      test_corpus_error_discipline;
    Alcotest.test_case "oracle conformance (quick matrix)" `Quick
      test_oracle_conformance;
    Alcotest.test_case "oracle conformance (full matrix)" `Quick
      test_oracle_full_matrix_conformance;
    Alcotest.test_case "unknown matrix rejected" `Quick
      test_unknown_matrix_rejected;
    Alcotest.test_case "planted JIT bug caught and shrunk" `Quick
      test_planted_jit_bug_caught_and_shrunk;
    Alcotest.test_case "shrink is deterministic" `Quick
      test_shrink_deterministic;
  ]
