# Convenience targets; tier-1 verification is `dune build && dune runtest`.

.PHONY: all build test bench perf route-bench lint analyze diff \
	diff-bench serve serve-bench whatif whatif-bench inc inc-bench \
	check telemetry-bench semantic-bench chaos smoke perfbench-selftest \
	clean

all: build

build:
	dune build

test:
	dune runtest

bench:
	dune exec bench/main.exe

# Full perf harness: writes the per-PR JSON (see DESIGN.md §2.1).
perf:
	dune exec bench/main.exe -- --perf --out BENCH_PR6.json

# Quick route-phase gate: sequential-vs-parallel identity (multiset vs
# the sequential reference, byte-identity across domain counts) on the
# packed-key arena pipeline (DESIGN.md §2.6).
route-bench:
	dune exec bench/main.exe -- --route-bench --quick

# Static analysis: build with the strict warning set, then run the
# `hoyan lint` pass over a generated WAN corpus (exits non-zero on any
# error-severity diagnostic; the corpus must come out clean).
lint:
	dune build @all
	dune exec bin/hoyan_cli.exe -- lint --deep --scale small
	dune exec bin/hoyan_cli.exe -- lint --deep --scale wan

# Cross-device semantic pass on its own: control-plane graph + the
# HOY020-HOY028 checks over the generated corpora (exit-code contract:
# 0 clean, 1 over the warning budget, 2 on any error).
analyze:
	dune build @all
	dune exec bin/hoyan_cli.exe -- analyze --scale small
	dune exec bin/hoyan_cli.exe -- analyze --scale wan

# Differential change-impact gate: `hoyan diff` over a sample
# propagating plan against the generated corpus (exit-code contract as
# lint/analyze), then the soundness cross-check from the test suite —
# every (device, prefix) verdict the simulator changes must fall inside
# the statically computed dirty region (DESIGN.md §2.7).
diff:
	dune build @all
	printf 'router bgp 64512\n network 198.51.100.0/24\n' > /tmp/hoyan_diff_plan.txt
	dune exec bin/hoyan_cli.exe -- diff /tmp/hoyan_diff_plan.txt --device r00-bdr01
	dune exec test/test_main.exe -- test differential

# Differential pass cost vs a full patched-model simulation on the WAN
# workload; writes BENCH_PR7.json (DESIGN.md §2.7).
diff-bench:
	dune exec bench/main.exe -- --diff-bench

# Serve smoke: the example request stream through the verification
# server with --selfcheck, which re-runs every executed request
# directly through Verify_request.run and asserts the served verdict
# is byte-identical (exit 1 on any mismatch or execution error), plus
# the server test suite (DESIGN.md §2.8).
serve:
	dune build @all
	dune exec bin/hoyan_cli.exe -- serve \
	  --requests examples/serve_requests.txt --selfcheck --no-timing
	dune exec test/test_main.exe -- test server

# k-failure soundness gate: `hoyan whatif --selfcheck` runs the pruned
# sweep AND the brute-force sweep in-process and asserts identical
# violating scenario sets (exit 2 on mismatch), then the kfailure test
# suite replays the same oracle over hand-built and qcheck-generated
# topologies for k in {1,2} (DESIGN.md §2.9).
whatif:
	dune build @all
	dune exec bin/hoyan_cli.exe -- whatif --scale small -k 1 --selfcheck; \
	  test $$? -le 1
	dune exec bin/hoyan_cli.exe -- whatif --scale small -k 2 --devices \
	  --selfcheck; test $$? -le 1
	dune exec test/test_main.exe -- test kfailure

# Pruning ratio + wall clock of the exhaustive sweep vs brute force
# (brute measured at small scale, extrapolated at wan scale); writes
# BENCH_PR9.json (DESIGN.md §2.9).
whatif-bench:
	dune exec bench/main.exe -- --whatif-bench

# Incremental-splice soundness gate: `hoyan verify --inc --selfcheck`
# runs the dirty-region splice AND a full from-scratch patched run
# in-process and asserts the RIB + traffic results are identical (exit
# 1 on mismatch), then the incremental test suite replays the oracle
# over a qcheck plan family including withdraw-only/no-op plans and a
# deliberately pruned (unsound) dirty set (DESIGN.md §2.10).
inc:
	dune build @all
	dune exec bin/hoyan_cli.exe -- verify --inc --selfcheck
	dune exec test/test_main.exe -- test incremental

# 300-plan mixed batch against one captured converged base: spliced
# incremental runs vs full re-simulation (measured subsample + honest
# extrapolation, full-fallback counters); writes BENCH_PR10.json.
inc-bench:
	dune exec bench/main.exe -- --inc-bench

# Verdict-latency benchmark self-test: builds perfbench/ (release
# profile, into .bench_build/) and runs every workload at small scale on
# a seed it was not tuned on, checking each workload's metric names and
# units against BENCHMARK.json, the verdict check, and that a
# deliberately corrupted verdict is caught (exit non-zero otherwise).
perfbench-selftest:
	python3 perfbench/run.py --selftest

# Open-loop load at the server: >=1200 mixed requests over 8 tenants,
# byte-identity contract check against direct runs, per-class p50/p99,
# cache hit rate, admission rejections; writes BENCH_PR8.json.
serve-bench:
	dune exec bench/main.exe -- --serve-bench

# Everything a PR must keep green: strict-warning build of every
# target (libs, bins, bench, tests), the full test suite, then the
# static-analysis gate over the generated corpora.
check:
	dune build @all
	dune runtest
	$(MAKE) lint
	$(MAKE) analyze

# Telemetry cost section: noop-guard microbench + live-handle overhead
# on the full WAN simulation; writes BENCH_PR3.json (DESIGN.md §2.3).
telemetry-bench:
	dune exec bench/main.exe -- --telemetry

# Semantic gate cost: the cross-device pass + static intent pre-checker
# vs the full WAN simulation; writes BENCH_PR4.json (DESIGN.md §2.4).
semantic-bench:
	dune exec bench/main.exe -- --semantic

# Fault-tolerance gate: the dist test suite (fault matrix, named-victim
# regressions, chaos determinism) plus a quick chaos bench asserting the
# monitor-loop overhead and the recovery contract (completed phases are
# identical to the failure-free run); writes BENCH_PR5.json at --quick
# scale (DESIGN.md §2.5).
chaos:
	dune exec test/test_main.exe -- test dist
	dune exec bench/main.exe -- --chaos --quick --out /tmp/BENCH_PR5_quick.json

# Tier-1 smoke: build, tests, and a quick perf-harness pass so the
# multicore pipeline and its identity assertions are exercised in CI.
smoke:
	dune build
	dune runtest
	dune exec bench/main.exe -- --perf --quick

clean:
	dune clean
