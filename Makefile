# Convenience targets; tier-1 verification is `dune build && dune runtest`.

.PHONY: all build test bench lint analyze diff serve whatif inc check \
	chaos perfbench-selftest clean

all: build

build:
	dune build

test:
	dune runtest

bench:
	dune exec bench/main.exe

# Static analysis: build with the strict warning set, then run the
# `hoyan lint` pass over a generated WAN corpus (exits non-zero on any
# error-severity diagnostic; the corpus must come out clean); then lint
# a plan that references an undefined prefix-list and route-policy on
# one border router, which must exit 2 with exactly the committed JSON
# findings, line numbers on the patched device included.
lint:
	dune build @all
	dune exec bin/hoyan_cli.exe -- lint --deep --scale small
	dune exec bin/hoyan_cli.exe -- lint --deep --scale wan
	dune exec bin/hoyan_cli.exe -- lint --scale small --json \
	  --plan examples/lint_findings_plan.txt --device r00-bdr01 \
	  > /tmp/hoyan_lint_findings.json; test $$? -eq 2
	diff examples/lint_findings_plan.expected /tmp/hoyan_lint_findings.json

# Cross-device semantic pass on its own: control-plane graph + the
# HOY020-HOY028 checks over the generated corpora (exit-code contract:
# 0 clean, 1 over the warning budget, 2 on any error).
analyze:
	dune build @all
	dune exec bin/hoyan_cli.exe -- analyze --scale small
	dune exec bin/hoyan_cli.exe -- analyze --scale wan

# Differential change-impact gate: `hoyan diff` over a sample
# propagating plan against the generated corpus (exit-code contract as
# lint/analyze); then a block with an unparsable line and a deletion
# that does not apply, whose HOY013/HOY014 errors must exit 2 however
# many warnings are allowed; then a negative IS-IS cost, a parse error
# of its line (HOY014, exit 2); then the soundness cross-check from the
# test suite — every (device, prefix) verdict the simulator changes must
# fall inside the statically computed dirty region (DESIGN.md §2.7).
diff:
	dune build @all
	printf 'router bgp 64512\n network 198.51.100.0/24\n' > /tmp/hoyan_diff_plan.txt
	dune exec bin/hoyan_cli.exe -- diff /tmp/hoyan_diff_plan.txt --device r00-bdr01
	printf 'router bgp 64512\n bogus-command 1 2 3\n no route-map NOPE 10\n' \
	  > /tmp/hoyan_diff_broken_plan.txt
	dune exec bin/hoyan_cli.exe -- diff /tmp/hoyan_diff_broken_plan.txt \
	  --device r00-bdr01 --max-warnings 1; test $$? -eq 2
	printf 'interface Eth0\n isis cost -100\n' > /tmp/hoyan_diff_negcost_plan.txt
	dune exec bin/hoyan_cli.exe -- diff /tmp/hoyan_diff_negcost_plan.txt \
	  --device r00-bdr01 > /tmp/hoyan_diff_negcost.out; test $$? -eq 2
	grep -q HOY014 /tmp/hoyan_diff_negcost.out
	dune exec test/test_main.exe -- test differential

# Serve smoke: the example request stream through the verification
# server with --selfcheck, which re-runs every executed request
# directly through Verify_request.run and asserts the served verdict
# is byte-identical (exit 1 on any mismatch or execution error); the
# same stream's response blocks must match the committed
# examples/serve_requests.expected byte for byte (the snapshot line
# carries a timing and is left out); plus the server test suite, whose
# mixed 8-tenant stream checks the same contract under cache hits and
# LRU evictions (DESIGN.md §2.8).
serve:
	dune build @all
	dune exec bin/hoyan_cli.exe -- serve \
	  --requests examples/serve_requests.txt --selfcheck --no-timing
	dune exec bin/hoyan_cli.exe -- serve \
	  --requests examples/serve_requests.txt --no-timing \
	  | awk '/^response /,/^end-response$$/' \
	  | diff examples/serve_requests.expected -
	dune exec test/test_main.exe -- test server

# k-failure soundness gate: `hoyan whatif --selfcheck` runs the pruned
# sweep AND the brute-force sweep in-process and asserts identical
# violating scenario sets (exit 2 on mismatch), at small scale and at
# wan scale (footprint-restricted fixpoints keep the wan sweep to
# seconds), links only and with device failures (the IGP failure views'
# device mask checked against brute force at wan scale), then the
# kfailure test suite replays the same oracle over
# hand-built and qcheck-generated topologies for k in {1,2} and checks
# the restricted verdicts against unrestricted fixpoints (DESIGN.md §2.9).
# A count below 1 (-k 0, --max-scenarios 0) is a usage error (exit 2),
# not a vacuous pass.
whatif:
	dune build @all
	dune exec bin/hoyan_cli.exe -- whatif --scale small -k 0; test $$? -eq 2
	dune exec bin/hoyan_cli.exe -- whatif --scale small --max-scenarios 0; \
	  test $$? -eq 2
	dune exec bin/hoyan_cli.exe -- whatif --scale small -k 1 --selfcheck; \
	  test $$? -le 1
	dune exec bin/hoyan_cli.exe -- whatif --scale small -k 2 --devices \
	  --selfcheck; test $$? -le 1
	dune exec bin/hoyan_cli.exe -- whatif --scale wan -k 1 --selfcheck; \
	  test $$? -le 1
	dune exec bin/hoyan_cli.exe -- whatif --scale wan -k 1 --devices \
	  --selfcheck; test $$? -le 1
	dune exec test/test_main.exe -- test kfailure

# Incremental-splice soundness gate: `hoyan verify --inc --selfcheck`
# runs the dirty-region splice AND a full from-scratch patched run
# in-process and asserts the RIB, FIB + traffic results are identical
# (exit 1 on mismatch), first on a no-op plan, then on a static-route
# plan whose FIB patch rebinds a BGP-learned slot, then on an aggregate
# plan whose dirty set is the aggregate closed over its components, then
# on an interface plan that only changes an IS-IS cost, which changes
# local tables and so exercises the chunk splice's local-table path (the
# intents hold, so exit 0 also means the verdicts passed); then the
# incremental test suite replays the oracle over a qcheck plan family
# including withdraw-only/no-op/static/more-specific plans and a
# deliberately pruned (unsound) dirty set (DESIGN.md §2.10).
inc:
	dune build @all
	dune exec bin/hoyan_cli.exe -- verify --inc --selfcheck
	dune exec bin/hoyan_cli.exe -- verify --inc --selfcheck \
	  --plan examples/static_route_plan.txt --device r00-bdr01 \
	  --intent 'prefix != 100.0.29.0/24 => PRE = POST'
	dune exec bin/hoyan_cli.exe -- verify --inc --selfcheck \
	  --plan examples/aggregate_plan.txt --device r00-bdr01 \
	  --intent 'prefix != 150.0.0.0/16 => PRE = POST'
	dune exec bin/hoyan_cli.exe -- verify --inc --selfcheck \
	  --plan examples/iface_cost_plan.txt --device r00-bdr01 \
	  --intent 'forall device in {r00-bdr01} : PRE |> count() = POST |> count()'
	dune exec test/test_main.exe -- test incremental

# Verdict-latency benchmark self-test: builds perfbench/ (release
# profile, into .bench_build/) and runs every workload at small scale on
# a seed it was not tuned on, checking each workload's metric names and
# units against BENCHMARK.json, the verdict check, and that a
# deliberately corrupted verdict is caught (exit non-zero otherwise).
perfbench-selftest:
	python3 perfbench/run.py --selftest

# Everything a PR must keep green, in the order CI runs it
# (.github/workflows/ci.yml): strict-warning build of every target
# (libs, bins, bench, tests), the full test suite, then every gate.
check:
	dune build @all
	dune runtest
	$(MAKE) lint
	$(MAKE) analyze
	$(MAKE) diff
	$(MAKE) chaos
	$(MAKE) serve
	$(MAKE) inc
	$(MAKE) whatif
	$(MAKE) perfbench-selftest

# Fault-tolerance gate: the dist test suite — the fault matrix over
# every Faultplan mode (completed phases identical to the failure-free
# run, incomplete ones list their failed subtasks), named-victim
# regressions, chaos determinism, and the framework route phase's
# direct/cross-subtask-count identity, aggregate networks included
# (DESIGN.md §2.5, §2.6); then the aggregate example plan verified on
# the framework's 100 subtasks, which must PASS as the direct run does
# (each subtask holds whole aggregates, so no aggregate is originated
# from a part of its contributors).
chaos:
	dune exec test/test_main.exe -- test dist
	dune exec bin/hoyan_cli.exe -- verify --scale small \
	  --plan examples/aggregate_plan.txt --device r00-bdr01 \
	  --intent 'POST||(prefix = 150.0.0.0/16) |> count() < 30' \
	  --distributed > /tmp/hoyan_chaos_verify.out
	grep -q '^verdict: PASS' /tmp/hoyan_chaos_verify.out

clean:
	dune clean
