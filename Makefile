all:
	dune build @all

test:
	dune runtest

# A 2-cell x 4-trial campaign on two workers whose journal must be
# byte-identical to the committed golden file: exercises the CLI, the
# worker pool, the deterministic sharding and the journal format in one
# shot.  Regenerate the golden (after a deliberate format change) by
# rerunning the dune exec line with --out test/golden/campaign_smoke.jsonl.
# The skip and aggregate legs run the same grid through the two fast
# executors at two worker counts: per-trial rngs make the journal a pure
# function of the spec, so --jobs must be invisible in the bytes.
campaign-smoke:
	dune exec bin/main.exe -- campaign -p 0.01 -n 40 --delta 3 --nu 0.15,0.4 \
	  --trials 4 --rounds 400 --jobs 2 --seed 7 \
	  --out _campaign_smoke.jsonl --progress-interval 0 >/dev/null
	cmp _campaign_smoke.jsonl test/golden/campaign_smoke.jsonl
	rm -f _campaign_smoke.jsonl
	dune exec bin/main.exe -- campaign -p 0.01 -n 40 --delta 3 --nu 0.15,0.4 \
	  --trials 4 --rounds 400 --jobs 2 --seed 7 --mining skip \
	  --out _campaign_smoke_skip.jsonl --progress-interval 0 >/dev/null
	cmp _campaign_smoke_skip.jsonl test/golden/campaign_smoke_skip.jsonl
	dune exec bin/main.exe -- campaign -p 0.01 -n 40 --delta 3 --nu 0.15,0.4 \
	  --trials 4 --rounds 400 --jobs 1 --seed 7 --mining skip \
	  --out _campaign_smoke_skip.jsonl --progress-interval 0 >/dev/null
	cmp _campaign_smoke_skip.jsonl test/golden/campaign_smoke_skip.jsonl
	rm -f _campaign_smoke_skip.jsonl
	dune exec bin/main.exe -- campaign -p 0.01 -n 40 --delta 3 --nu 0.15,0.4 \
	  --trials 4 --rounds 400 --jobs 2 --seed 7 --mining aggregate \
	  --out _campaign_smoke_aggregate.jsonl --progress-interval 0 >/dev/null
	cmp _campaign_smoke_aggregate.jsonl test/golden/campaign_smoke_aggregate.jsonl
	dune exec bin/main.exe -- campaign -p 0.01 -n 40 --delta 3 --nu 0.15,0.4 \
	  --trials 4 --rounds 400 --jobs 1 --seed 7 --mining aggregate \
	  --out _campaign_smoke_aggregate.jsonl --progress-interval 0 >/dev/null
	cmp _campaign_smoke_aggregate.jsonl test/golden/campaign_smoke_aggregate.jsonl
	rm -f _campaign_smoke_aggregate.jsonl

# Executor floors: the aggregate executor must out-run exact mode at
# n = 10^4, the Skip executor must run 20x Aggregate at the c = 8,
# Delta = 256 paper-scale cell, and Binomial.sample cost must be flat in
# the trial count at fixed mean.  Prints the measured ratios.
bench-exec-smoke:
	dune exec bench/main.exe -- --execscale-smoke

# Markov floors at Delta = 500: GTH censoring must out-run the dense LU
# stationary solve 10x and every solver must sit within 1e-9 of the
# Eq. 37 closed form.  Prints the measured ratios.
markov-smoke:
	dune exec bench/main.exe -- --markovscale-smoke

# Crash-recovery smoke: the campaign-smoke run, but killed by an injected
# fault and then resumed.  Leg 1 crashes after the first two fsynced
# appends (header + one cell); leg 2 tears the final cell append in half
# mid-write, which --resume must repair (truncate + log), not reject.
# Both resumed journals must be byte-identical to the committed golden —
# kill-then-resume equals never-killed, to the byte.  The injected crash
# exits 70 (EX_SOFTWARE), which each leg asserts.
FAULT_SMOKE_ARGS = campaign -p 0.01 -n 40 --delta 3 --nu 0.15,0.4 \
  --trials 4 --rounds 400 --jobs 2 --seed 7 --progress-interval 0
faultinject-smoke:
	dune exec bin/main.exe -- $(FAULT_SMOKE_ARGS) \
	  --out _fault_smoke.jsonl --fault crash-after-appends=2 \
	  >/dev/null 2>&1; test $$? -eq 70
	dune exec bin/main.exe -- $(FAULT_SMOKE_ARGS) \
	  --out _fault_smoke.jsonl --resume >/dev/null
	cmp _fault_smoke.jsonl test/golden/campaign_smoke.jsonl
	rm -f _fault_smoke.jsonl
	dune exec bin/main.exe -- $(FAULT_SMOKE_ARGS) \
	  --out _fault_smoke.jsonl --fault torn-write=3 \
	  >/dev/null 2>&1; test $$? -eq 70
	dune exec bin/main.exe -- $(FAULT_SMOKE_ARGS) \
	  --out _fault_smoke.jsonl --resume >/dev/null 2>_fault_smoke.log
	grep -q "torn tail" _fault_smoke.log
	cmp _fault_smoke.jsonl test/golden/campaign_smoke.jsonl
	rm -f _fault_smoke.jsonl _fault_smoke.log

# Telemetry golden: the campaign-smoke grid on one worker with the
# zero clock (every span records 0s, so durations are byte-stable) and
# --telemetry; the prom exposition must match its golden byte-for-byte,
# and the JSONL must match after scrubbing the meta line's wall-clock
# emitted_at stamp.  Single-worker because at jobs >= 2 the
# domain="k" shard labels depend on scheduling.  Regenerate after a
# deliberate format change by rerunning the dune exec line and copying
# _telemetry_smoke/ over test/golden/telemetry_smoke.{prom,jsonl}
# (scrub emitted_at with the sed below first).
telemetry-smoke:
	NAKAMOTO_TELEMETRY_CLOCK=zero dune exec bin/main.exe -- campaign \
	  -p 0.01 -n 40 --delta 3 --nu 0.15,0.4 --trials 4 --rounds 400 \
	  --jobs 1 --seed 7 --out _telemetry_smoke.jsonl \
	  --telemetry _telemetry_smoke --progress-interval 0 >/dev/null
	cmp _telemetry_smoke.jsonl test/golden/campaign_smoke.jsonl
	cmp _telemetry_smoke/telemetry.prom test/golden/telemetry_smoke.prom
	sed 's/"emitted_at":[0-9.e+-]*/"emitted_at":0/' \
	  _telemetry_smoke/telemetry.jsonl > _telemetry_smoke/scrubbed.jsonl
	cmp _telemetry_smoke/scrubbed.jsonl test/golden/telemetry_smoke.jsonl
	rm -rf _telemetry_smoke.jsonl _telemetry_smoke

# Three-process serve smoke, once per transport: a daemon
# (--max-campaigns 1, so it exits when the campaign completes), one
# worker leasing in batches, and a client submission of the
# campaign-smoke grid over the wire.  Both the Unix-socket leg and the
# TCP-loopback leg must produce journals byte-identical to the same
# committed golden the CLI smoke uses: the transport and topology are
# invisible in the artifact.  (Kill-mid-lease fleets over both
# transports, with their lease churn, are covered by test/test_serve.ml.)
# The binaries are run directly from _build so the processes don't
# contend for the dune lock.
#
# The daemon-side resume legs: the faultinject-smoke crashes (cut short
# after two appends; torn mid-append), then resumed through serve +
# worker + campaign --connect --resume.  The daemon repairs the torn
# tail (logged) and the finished journal must match the golden.
SERVE_RESUME = _build/default/bin/main.exe serve --socket _serve_smoke.sock \
	  --max-campaigns 1 >/dev/null 2>_serve_smoke.log & \
	_build/default/bin/main.exe worker --connect _serve_smoke.sock \
	  >/dev/null & \
	_build/default/bin/main.exe $(FAULT_SMOKE_ARGS) \
	  --connect _serve_smoke.sock --out _serve_smoke.jsonl --resume \
	  >/dev/null && wait
serve-smoke:
	dune build bin/main.exe
	rm -f _serve_smoke.sock _serve_smoke.jsonl _serve_smoke_tcp.jsonl
	_build/default/bin/main.exe serve --socket _serve_smoke.sock \
	  --max-campaigns 1 >/dev/null & \
	_build/default/bin/main.exe worker --connect _serve_smoke.sock \
	  --lease-batch 2 >/dev/null & \
	_build/default/bin/main.exe campaign -p 0.01 -n 40 --delta 3 \
	  --nu 0.15,0.4 --trials 4 --rounds 400 --seed 7 \
	  --connect _serve_smoke.sock --out _serve_smoke.jsonl \
	  --progress-interval 0 >/dev/null && wait
	cmp _serve_smoke.jsonl test/golden/campaign_smoke.jsonl
	_build/default/bin/main.exe serve --listen 127.0.0.1:17811 \
	  --max-campaigns 1 >/dev/null & \
	_build/default/bin/main.exe worker --connect-tcp 127.0.0.1:17811 \
	  >/dev/null & \
	_build/default/bin/main.exe campaign -p 0.01 -n 40 --delta 3 \
	  --nu 0.15,0.4 --trials 4 --rounds 400 --seed 7 \
	  --connect-tcp 127.0.0.1:17811 --out _serve_smoke_tcp.jsonl \
	  --progress-interval 0 >/dev/null && wait
	cmp _serve_smoke_tcp.jsonl test/golden/campaign_smoke.jsonl
	_build/default/bin/main.exe $(FAULT_SMOKE_ARGS) \
	  --out _serve_smoke.jsonl --fault crash-after-appends=2 \
	  >/dev/null 2>&1; test $$? -eq 70
	$(SERVE_RESUME)
	cmp _serve_smoke.jsonl test/golden/campaign_smoke.jsonl
	_build/default/bin/main.exe $(FAULT_SMOKE_ARGS) \
	  --out _serve_smoke.jsonl --fault torn-write=3 \
	  >/dev/null 2>&1; test $$? -eq 70
	$(SERVE_RESUME)
	grep -q "torn tail" _serve_smoke.log
	cmp _serve_smoke.jsonl test/golden/campaign_smoke.jsonl
	rm -f _serve_smoke.sock _serve_smoke.jsonl _serve_smoke_tcp.jsonl \
	  _serve_smoke.log

# Surface regeneration determinism: the same box built twice on one
# domain and once on two must be byte-identical, and must match the
# committed golden (bin + canonical-JSON header) byte-for-byte — the
# file is a pure function of the build inputs, so a drifting fingerprint
# means the certifier or the format changed.  Regenerate after a
# deliberate change by rerunning the first dune exec line with
# --out test/golden/surface_smoke.bin and piping `surface info --header`
# over test/golden/surface_smoke_header.json.
SURFACE_SMOKE_BOX = -p 1.1e-4:1.4e-4:3:log -n 100:140:3:log \
  --delta 28:36:3:log --nu 0.012:0.016:3:lin
surface-smoke:
	dune exec bin/main.exe -- surface build $(SURFACE_SMOKE_BOX) \
	  --out _surface_smoke.bin >/dev/null
	dune exec bin/main.exe -- surface build $(SURFACE_SMOKE_BOX) \
	  --out _surface_smoke_b.bin >/dev/null
	cmp _surface_smoke.bin _surface_smoke_b.bin
	dune exec bin/main.exe -- surface build $(SURFACE_SMOKE_BOX) --jobs 2 \
	  --out _surface_smoke_b.bin >/dev/null
	cmp _surface_smoke.bin _surface_smoke_b.bin
	cmp _surface_smoke.bin test/golden/surface_smoke.bin
	dune exec bin/main.exe -- surface info _surface_smoke.bin --header \
	  > _surface_smoke_header.json
	cmp _surface_smoke_header.json test/golden/surface_smoke_header.json
	rm -f _surface_smoke.bin _surface_smoke_b.bin _surface_smoke_header.json

# Surface floor: cached surface queries must run at least 20x the exact
# solver on the certified depth-3 plateau at enumerable Delta (where each
# exact call pays a Delta-state stationary solve).  Prints the measured
# ratio; retires together with lib/surface.
assessscale-smoke:
	dune exec bench/main.exe -- --assessscale-smoke

# The property tier's oracle-focused run: the differential oracle (50
# generated scenarios through Exact / Aggregate / state-process lanes),
# the stationary cross-checks, and the Δ-ring vs queue-lane equivalence.
# The telemetry leg pins the snapshot-merge monoid laws (1000 cases per
# instrument) and the interarrival-vs-geometric distribution check.  The
# markov leg runs 1000 random banded ergodic chains through the sparse
# solvers against the dense LU and power references (1e-12 agreement),
# plus the CSR round-trip property.  The audit
# leg compares the consistency audit, max disagreement and snapshot
# meets with the quadratic reference audit on generated executions, and
# fails if no generated case violated consistency.
# Failures print a PROPTEST_SEED / PROPTEST_REPLAY one-liner; see
# DESIGN.md §8.
proptest-smoke:
	dune exec test/prop/prop_main.exe -- test oracle
	dune exec test/prop/prop_main.exe -- test audit
	dune exec test/prop/prop_main.exe -- test telemetry
	dune exec test/prop/prop_main.exe -- test markov

# An unknown scenario name is a usage error: cmdliner's exit 124 with
# the valid names listed, never an uncaught exception.
cli-smoke:
	dune build bin/main.exe
	for cmd in simulate trace; do \
	  _build/default/bin/main.exe $$cmd bogus 2>_cli_smoke.log; \
	  test $$? -eq 124 || exit 1; \
	  grep -q "invalid value 'bogus'" _cli_smoke.log || exit 1; \
	  if grep -q "internal error" _cli_smoke.log; then exit 1; fi; \
	done
	rm -f _cli_smoke.log

# Opt-in statistical soak: every property rerun with PROPTEST_TRIALS=500
# via the @soak alias.  Not part of `check` — run before releases or when
# touching an executor or sampler.
soak:
	dune build @soak

# The repository benchmark (bench/perf, see its README) at 1% size with
# every output check on, then the checkers' own tamper test.  Fails on
# any wrong verdict or journal byte; measures nothing worth comparing.
perf-smoke:
	bash bench/perf/run.sh --smoke
	bash bench/perf/run.sh selftest

# Compare two benchmark ledgers (written by `run.sh ledger`), e.g.
#   make bench-diff OLD=bench/ledger/baseline.json NEW=new-ledger.json
# Exits nonzero when any end-to-end metric got worse beyond its bound.
bench-diff:
	bash bench/perf/run.sh diff $(OLD) $(NEW)

check: all test campaign-smoke faultinject-smoke telemetry-smoke \
  serve-smoke bench-exec-smoke markov-smoke surface-smoke \
  assessscale-smoke proptest-smoke cli-smoke perf-smoke

bench:
	dune exec bench/main.exe

examples:
	for e in quickstart figure1_repro attack_demo montecarlo_validation bound_explorer settlement markov_tour; do dune exec examples/$$e.exe; done

artifacts:
	dune runtest --force --no-buffer 2>&1 | tee test_output.txt
	dune exec bench/main.exe 2>&1 | tee bench_output.txt

.PHONY: all test bench examples artifacts campaign-smoke faultinject-smoke \
  telemetry-smoke serve-smoke bench-exec-smoke markov-smoke surface-smoke \
  assessscale-smoke proptest-smoke cli-smoke perf-smoke bench-diff soak \
  check
