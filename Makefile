PYTHON ?= python
export PYTHONPATH := src
BENCH_DIR ?= bench-artifacts

.PHONY: check test examples-smoke cli-smoke reach paper-claims bench-smoke bench-check bench-diff bench-golden bench-ab micro ledger-smoke docs-check lint lint-dist

test:
	$(PYTHON) -m pytest -x -q

# Every example end to end; the first non-zero exit fails the target.
examples-smoke:
	set -e; for example in examples/*.py; do $(PYTHON) $$example > /dev/null; done

# Every `repro` subcommand on the sample application, plus the unsupported
# sample, a report under a generated policy and one under a glob-pattern policy
# (tests/sample_policy.json) and both traced workloads with a span tree and a
# Chrome-trace export: each must exit 0 and print something.
CLI_SMOKE_DIR ?= cli-smoke-out
cli-smoke:
	@set -e; mkdir -p $(CLI_SMOKE_DIR); \
	smoke() { echo "repro $$*"; out=$$($(PYTHON) -m repro "$$@") || exit 1; \
		test -n "$$out" || { echo "repro $$*: no output"; exit 1; }; }; \
	smoke --help; \
	smoke analyze tests/sample_app.py; \
	smoke analyze tests/sample_unsupported.py; \
	smoke emit tests/sample_app.py; \
	smoke report tests/sample_app.py; \
	smoke lint tests/sample_app.py; \
	smoke lint --select DS101,DS102 --format json tests/sample_app.py; \
	smoke lint --explain DS101; \
	smoke corpus-study; \
	smoke policy-template --classes X,Y,Z --nodes client,server; \
	$(PYTHON) -m repro policy-template --classes X,Y,Z --nodes client,server > $(CLI_SMOKE_DIR)/policy.json; \
	smoke report tests/sample_app.py --policy $(CLI_SMOKE_DIR)/policy.json; \
	smoke report tests/sample_app.py --policy tests/sample_policy.json; \
	smoke trace --workload open_loop --duration 0.1 --tree --export $(CLI_SMOKE_DIR)/open_loop.json; \
	smoke trace --workload cached_catalog --duration 0.1 --tree --export $(CLI_SMOKE_DIR)/cached_catalog.json

# Every function of src/repro is entered by a consumer (the examples, the CLI
# smoke, the wall-clock ledger, the legacy bench scripts, paper-claims,
# docs-check, lint-dist) or has a row with a reason in tests/reach_tests_only.txt
# (see benchmarks/reach.py; about six minutes).
reach:
	$(PYTHON) benchmarks/reach.py

# The paper's experiments and the other claim checks in benchmarks/bench_*.py,
# run as tests (needs pytest-benchmark; timing is disabled, only the claims run).
paper-claims:
	$(PYTHON) -m pytest -q -p no:cacheprovider -o python_files='bench_*.py' -o python_functions='bench_*' benchmarks --benchmark-disable

bench-smoke:
	mkdir -p $(BENCH_DIR)
	BENCH_OUT_DIR=$(BENCH_DIR) $(PYTHON) benchmarks/bench_batching.py
	BENCH_OUT_DIR=$(BENCH_DIR) $(PYTHON) benchmarks/bench_pipelining.py
	BENCH_OUT_DIR=$(BENCH_DIR) $(PYTHON) benchmarks/bench_replication.py
	BENCH_OUT_DIR=$(BENCH_DIR) $(PYTHON) benchmarks/bench_caching.py
	BENCH_OUT_DIR=$(BENCH_DIR) $(PYTHON) benchmarks/bench_load.py
	BENCH_OUT_DIR=$(BENCH_DIR) $(PYTHON) benchmarks/bench_middleware.py
	BENCH_OUT_DIR=$(BENCH_DIR) $(PYTHON) benchmarks/bench_partition.py
	BENCH_OUT_DIR=$(BENCH_DIR) $(PYTHON) benchmarks/bench_tracing.py

bench-check: bench-smoke
	$(PYTHON) benchmarks/check_regressions.py --dir $(BENCH_DIR)

# The refactor oracle: every simulated-clock number of this tree, byte for
# byte against the BENCH_*.json of another one (`make bench-smoke` there).
bench-diff: bench-smoke
	diff -r $(BASE) $(BENCH_DIR)

# The same oracle without a parent checkout: the eight artifacts committed
# under benchmarks/golden (Python 3.11; regenerate them by copying the output
# of `make bench-smoke` only when a change is meant to move a simulated number).
bench-golden: bench-smoke
	diff -r benchmarks/golden $(BENCH_DIR)

# Host-time A/B against a checkout of the parent commit: alternating pairs of
# the wall-clock ledger's run.py, e.g.
#   make bench-ab BASE=../parent W=batch_payload PAIRS=10 SEED=7
W ?= batch_payload
PAIRS ?= 10
SEED ?= 7
bench-ab:
	$(PYTHON) benchmarks/ab_pairs.py --base $(BASE) --workload $(W) --pairs $(PAIRS) --seed $(SEED)

# The wall-clock ledger's micro pass alone, one `name value unit` line per
# metric (median of 5 passes per loop), e.g.
#   make micro | grep cache_hit
# --seconds 0.1 is the ledger's own pass length (LEDGER_MICRO_PASS_S in run.py).
micro:
	@PYTHONHASHSEED=0 $(PYTHON) benchmarks/wallclock/run.py --child micro --seed $(SEED) --seconds 0.1 \
		| $(PYTHON) -c "import json, sys; units = {m['name']: m['unit'] for m in json.load(open('BENCHMARK.json'))['per_layer']}; [print(name, round(value, 1), units[name]) for name, value in json.loads(sys.stdin.read().splitlines()[-1]).items()]"

# Every workload of the wall-clock ledger (BENCHMARK.json), briefly: each run
# does at least 5 fresh-process rounds, checks every result against its oracle,
# requires the simulated numbers to agree across rounds and exits 1 otherwise;
# then each workload's sim_us_per_call, wire_bytes_per_call and msgs_per_call
# must equal tests/ledger_sim_seed7.json exactly, and again at seed 23 against
# tests/ledger_sim_seed23.json (re-baseline a row that is meant to move with
# `python benchmarks/ledger_smoke.py --seed N --write`, for both seeds).
ledger-smoke:
	$(PYTHON) benchmarks/ledger_smoke.py --seed 7
	$(PYTHON) benchmarks/ledger_smoke.py --seed 23

docs-check:
	$(PYTHON) -m repro.tools.doccheck src/repro --level api --fail-under 100

lint: lint-dist
	ruff check .

lint-dist:
	$(PYTHON) -m repro lint src/repro examples tests/sample_app.py

# What CI gates, locally: bench-check and bench-golden share one bench-smoke run,
# and bench-golden and the seed-7 ledger smoke run once more under another hash
# seed, as in CI (nothing on the wire or in the event order may depend on hash
# iteration order).
check: test examples-smoke cli-smoke paper-claims bench-check bench-golden ledger-smoke docs-check lint-dist
	PYTHONHASHSEED=123 $(MAKE) bench-golden
	PYTHONHASHSEED=123 $(PYTHON) benchmarks/ledger_smoke.py --seed 7
