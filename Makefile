# Convenience wrapper over dune.  `make check` is the tier-1 gate
# (`dune runtest`, which also holds the serving-determinism, hot-reload,
# fuel-batching and fuzz-conformance gates) plus end-to-end smoke runs of
# the CLI, the profiler bench and the repository benchmark.  None of them
# gates a timing except profile-smoke's 2x bound; performance is measured
# by perfbench (`bash perfbench/run.sh`, see perfbench/README.md).

.PHONY: all build test check bench bench-profile lint-smoke bound-smoke \
        trace-smoke serve-smoke profile-smoke fuzz-smoke perf-smoke clean

all: build

build:
	dune build @all

test:
	dune runtest

check:
	dune build @all
	dune runtest
	$(MAKE) lint-smoke
	$(MAKE) bound-smoke
	$(MAKE) trace-smoke
	$(MAKE) serve-smoke
	$(MAKE) profile-smoke
	$(MAKE) fuzz-smoke
	$(MAKE) perf-smoke

# The three analysis passes over the lint corpus (which includes the §2.2
# probe-read exploit vehicle): every known-bad program must be flagged,
# every clean one must not, and the examples/lint_demo ground-truth run
# must agree with the runtime on both programs.
lint-smoke:
	dune build @all
	dune exec bin/untenable_cli.exe -- lint > /tmp/lint.out
	grep -q '^sock-leak .*resource.*error' /tmp/lint.out
	grep -q '^ringbuf-leak .*resource.*error' /tmp/lint.out
	grep -q '^lock-sleep .*lock.*error' /tmp/lint.out
	grep -q '^redundant-guard .*elide.*info.*elided' /tmp/lint.out
	! grep -q '^sock-clean .*\(error\|warning\)' /tmp/lint.out
	! grep -q '^probe-read-crasher .*\(error\|warning\|info\)' /tmp/lint.out
	dune exec examples/lint_demo.exe > /tmp/lint_demo.out
	grep -q 'leaky: .*OK' /tmp/lint_demo.out
	grep -q 'clean: .*OK' /tmp/lint_demo.out
	@echo "lint-smoke: OK"

# Cost & termination analysis: the known-bounded corpus programs get
# finite bounds that dominate their observed retired counts, and the §2.2
# hang shapes stay unbounded.  That batching changes no outcome or
# retired count is test_analysis's bound soundness property; the
# throughput it buys comes from `dune exec bench/main.exe -- bound`.
bound-smoke:
	dune build @all
	dune exec bin/untenable_cli.exe -- bound > /tmp/bound.out
	grep -Eq '^straight-line +0 +- +4 +4' /tmp/bound.out
	grep -Eq '^alu-loop +1 +65 +328 ' /tmp/bound.out
	grep -Eq '^nested-counted +2 +9,17 +489 ' /tmp/bound.out
	grep -Eq '^data-loop +1 +\? +unbounded ' /tmp/bound.out
	grep -Eq '^bpf-loop-hang +0 +- +unbounded ' /tmp/bound.out
	@echo "bound-smoke: OK"

# Causal-trace round trip: a seeded serve run exports a Chrome
# trace-event file, the exporter self-validates it (balanced B/E per lane,
# monotonic timestamps), and the standalone parser re-validates from disk.
trace-smoke:
	dune build @all
	dune exec bin/untenable_cli.exe -- serve --reloads 0 --events 200 \
	  --trace /tmp/untenable-trace.json > /tmp/trace_smoke.out
	grep -q 'perfetto-valid' /tmp/trace_smoke.out
	test -s /tmp/untenable-trace.json
	dune exec bin/untenable_cli.exe -- trace-check /tmp/untenable-trace.json
	@echo "trace-smoke: OK"

# Runtime containment end to end: under supervision the armed probe-read
# crasher is quarantined and the kernel survives; under isolation with
# chaos injection it crashes on every event, because chaos disarming its
# own helper-bug injection must not disarm the crasher's bug.
serve-smoke:
	dune build @all
	dune exec bin/untenable_cli.exe -- serve --reloads 0 --events 2000 \
	  --crasher --policy supervise > /tmp/serve_smoke_sup.out
	grep -Eq '^[0-9]+ +crasher +quarantined ' /tmp/serve_smoke_sup.out
	grep -q '^kernel at end: alive' /tmp/serve_smoke_sup.out
	dune exec bin/untenable_cli.exe -- serve --reloads 0 --events 2000 \
	  --crasher --policy isolate --chaos-rate 0.05 > /tmp/serve_smoke_iso.out
	grep -Eq '^[0-9]+ +crasher +[a-z-]+ +2000 +0 ' /tmp/serve_smoke_iso.out
	@echo "serve-smoke: OK"

# Sampling-profiler wiring: samples land while armed and the on/off ratio
# stays bounded.  3 reps is too noisy for the <5% target — that number
# comes from the full `make bench-profile` run.
profile-smoke:
	dune build @all
	dune exec bench/main.exe -- profile-smoke > /tmp/profile_smoke.out
	grep -q 'samples taken while armed' /tmp/profile_smoke.out
	! grep -q 'samples taken while armed: 0 ' /tmp/profile_smoke.out
	grep -q 'smoke bound: .* MET' /tmp/profile_smoke.out
	@echo "profile-smoke: OK"

# Differential fuzzing through the CLI: a pinned seed drives 500
# generated programs through the quick execution-mode matrix with zero
# divergences; a planted JIT branch bug must be caught (or the zero is
# vacuous); and the `fuzz --replay` CLI honors exit-code discipline on
# good, diverging, and corrupt corpus files.  The in-process gate (seed
# 0xF00D, planted bug shrunk to <= 10 insns) is in test_fuzz.
fuzz-smoke:
	dune build @all
	dune exec bin/untenable_cli.exe -- fuzz --seed 1 --budget 500 \
	  --corpus /tmp/untenable-fuzz-corpus > /tmp/fuzz_smoke.out
	grep -q '^divergences: 0' /tmp/fuzz_smoke.out
	dune exec bin/untenable_cli.exe -- fuzz --seed 42 --budget 60 \
	  --plant-jit-bug --corpus /tmp/untenable-fuzz-corpus > /tmp/fuzz_plant.out; \
	  test $$? -eq 1
	grep -q '^divergences: [1-9]' /tmp/fuzz_plant.out
	dune exec bin/untenable_cli.exe -- fuzz \
	  --replay $$(ls -d /tmp/untenable-fuzz-corpus/*.fuzz | head -1) \
	  > /tmp/fuzz_replay.out
	grep -q 'conforming' /tmp/fuzz_replay.out
	! dune exec bin/untenable_cli.exe -- fuzz --replay /tmp/no-such-file.fuzz \
	  2> /dev/null
	@echo "fuzz-smoke: OK"

# Correctness smoke of the repository benchmark: perfbench still builds in
# its release profile against the current library, every load-mix verdict
# matches its program's class, untraced and traced, and every serve-compute
# chunk served on the JIT (cached images) matches an interpreter engine
# serving the same stream.  Two seconds each; no timing is gated.  The
# last stdout line is the result object.
perf-smoke:
	bash perfbench/run.sh --workload load-mix --seed 1 --seconds 2 \
	  --trace 0 > /tmp/perf_smoke_0.out
	tail -n 1 /tmp/perf_smoke_0.out | grep -q '"correct": true'
	bash perfbench/run.sh --workload load-mix --seed 1 --seconds 2 \
	  --trace 1 > /tmp/perf_smoke_1.out
	tail -n 1 /tmp/perf_smoke_1.out | grep -q '"correct": true'
	bash perfbench/run.sh --workload serve-compute --seed 1 --seconds 2 \
	  --trace 0 > /tmp/perf_smoke_compute.out
	tail -n 1 /tmp/perf_smoke_compute.out | grep -q '"correct": true'
	@echo "perf-smoke: OK"

bench:
	dune exec bench/main.exe

bench-profile:
	dune exec bench/main.exe -- profile

clean:
	dune clean
