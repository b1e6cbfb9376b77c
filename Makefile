GO ?= go

.PHONY: all build test race vet fmt lint vuln fuzzseed flake chaos ci smoke bench benchbase benchcmp benchsmoke simref docscheck tailcheck cover coverbase clean

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# fmt fails if any file needs reformatting.
fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# lint runs the project's static-analysis suite — the per-package
# analyzers (ringorder, metricname, hotalloc) plus the interprocedural
# ones over the whole-module call graph (kickflush, lockorder,
# detsafe, and deadcode, which flags every internal/ function that no
# main, init, public API, function value, interface conversion or
# other package's test reaches), printing the root→site call path
# under each cross-function finding. It fails on any diagnostic that lacks an auditable
# `//fvlint:ignore <analyzer> <reason>` directive, and then audits
# every suppression in the tree: one without a reason fails the build.
lint:
	$(GO) run ./cmd/fvlint -suppressed -why -root .
	$(GO) run ./cmd/fvlint -suppressions -root .

# vuln runs govulncheck when the toolchain ships it; absence is not a
# failure so offline/minimal containers still pass ci.
vuln:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "vuln: govulncheck not installed, skipping"; \
	fi

# fuzzseed replays every fuzz target's committed seed corpus (and any
# saved crashers under testdata/fuzz) as ordinary tests — no -fuzz time
# budget needed, so it is cheap enough for every CI run.
fuzzseed:
	$(GO) test -run '^Fuzz' -v ./internal/virtio ./internal/faults ./internal/sim ./internal/netstack

# flake runs vet plus the race detector with -count=2: the second pass
# reruns everything with warm caches and different goroutine timings,
# the cheapest way to catch order-dependent or racy tests. The second
# race pass builds with -tags fvinvariants so the runtime ring/doorbell
# assertions (internal/fvassert) are exercised under contention.
flake:
	$(GO) vet ./...
	$(GO) test -race -count=2 ./...
	$(GO) test -race -tags fvinvariants ./...

# bench runs the sweep and series benchmarks with allocation accounting
# (allocs/op on the steady-state series benchmarks must read 0) and the
# sim kernel's dispatch micro-benchmarks (wakes that switch processes:
# two in lockstep, three in rotation, two alternating above a parked
# third; and one that does not), Jitter's fast path beside its exact
# chain, the busy-poll spinner against a device process and the flight
# recorder's per-span path (both 0 allocs/op), the per-packet cost-model
# lookups (XDMA register-file traffic, TLP link timing, CPUWork's draws
# over a cycle of distinct segment lengths), one MSI-X delivery through
# a step-form interrupt handler (CPU work, a register read and a wake;
# 0 allocs/op), the card-side port's read
# and write transfers, the SGDMA engines' H2C and C2H runs and the
# VirtIO controller's TX chain plus RX delivery on split and packed
# rings (all 0 allocs/op) and the Internet checksum,
# then times the paper's full 50k-packet Fig-3 matrix serially and
# through the parallel engine. The committed
# baseline is NOT rewritten here — use benchbase for that — so a routine
# bench run cannot silently move the gate.
bench:
	$(GO) test -run '^$$' -bench 'SweepGrid|SeriesSteadyState|ProcHandoff|ProcRing3|ProcAlternate|ProcSelfWake|Jitter|SpinAgainstDevice|FlightSpan|RegFile|LinkTiming|PortTransfer|VendorRun|ControllerChain|Checksum|CPUWork|IRQDispatch' -benchmem ./internal/experiments ./internal/sim ./internal/hostos ./internal/telemetry ./internal/fpga ./internal/pcie ./internal/xdmaip ./internal/vdev ./internal/netstack .
	$(GO) run ./cmd/fvsweepbench -n 50000 -json $${TMPDIR:-/tmp}/fvsweepbench-full.json

# benchbase deliberately re-records BENCH_sweep.json at the full grid.
# Run it only when a PR intentionally moves per-packet cost (either
# direction); the diff to BENCH_sweep.json plus benchcmp's printed
# delta are the reviewable record.
benchbase:
	$(GO) run ./cmd/fvsweepbench -n 50000 -json BENCH_sweep.json

# benchcmp re-times the sweep at the baseline's grid and gates the
# serial per-packet cost in both directions: it fails (exit 1) when the
# cost regresses more than 15% against the committed BENCH_sweep.json
# or when the parallel speedup drops below 3x on a host with >= 4 CPUs
# (single-core hosts record speedup but are not judged on it), and on a
# pass it prints the signed improvement delta so wins are auditable and
# re-baselines reviewable.
benchcmp:
	$(GO) run ./cmd/fvsweepbench -n 50000 -check BENCH_sweep.json

# benchsmoke is the cheap ci variant: a small grid proves the bench
# harness, artifact schema, and comparison gate end to end, and its
# -tolerance 2 check against the committed BENCH_sweep.json asserts the
# smoke ns-per-packet stays within 3x of the recorded baseline — a
# catastrophic event-loop regression fails fast even on 1-CPU runners
# where the parallel-speedup gate is skipped. (Small-n runs carry boot
# amortization the 50k baseline doesn't — n=500 keeps the smoke within
# a few percent of steady state, honest headroom inside the 3x budget.)
benchsmoke:
	$(GO) run ./cmd/fvsweepbench -n 500 -payloads 64,256 \
		-json $${TMPDIR:-/tmp}/fvsweepbench-smoke.json \
		-check BENCH_sweep.json -tolerance 2 -minspeedup 0

# simref re-runs the determinism-sensitive suites with the event queue
# swapped for the container/heap reference shim (-tags simrefqueue).
# The root-package replay fingerprint, workload and flight-dump goldens
# and the per-experiment digests must match under both builds, proving
# the calendar queue changes nothing observable.
simref:
	$(GO) test -tags simrefqueue ./internal/sim .
	$(GO) test -tags simrefqueue -run TestExperimentDigestGolden ./internal/experiments

# docscheck reruns every `go run ./cmd/fvbench -n N <name>` section of
# EXPERIMENTS.md through the experiment index at seed 1 and requires
# the document's block to equal the render byte for byte (Table I and
# Fig. 3 keep a paper-vs-measured table, checked cell by cell).
docscheck:
	$(GO) test -count=1 -tags docscheck -run TestDocsMatchRender ./internal/experiments

# smoke runs a tiny fvbench sweep and writes the JSON bench artifact;
# fvbench re-reads and validates the file against the exporter schema,
# so a passing run proves the end-to-end export path.
smoke:
	$(GO) run ./cmd/fvbench -n 200 -payloads 64,256 -json $${TMPDIR:-/tmp}/fvbench-smoke.json fig3 > /dev/null
	$(GO) run ./cmd/fvbench -mode=throughput -packets 200 -sizes 64 -window 8 \
		-json $${TMPDIR:-/tmp}/fvbench-tp-smoke.json -csv $${TMPDIR:-/tmp}/fvbench-tp-smoke.csv > /dev/null
	$(GO) run ./cmd/fvtrace -chrome $${TMPDIR:-/tmp}/fvtrace-smoke.json -summary virtio > /dev/null

# tailcheck is the tail-attribution and flight-recorder gate: a faulted
# fvbench sweep must (1) write a schema-valid artifact whose
# tail_attribution block is present (fvbench re-reads and validates the
# JSON, which checks every tail sample's layer sums against its RTT),
# (2) produce flight-recorder post-mortem dumps under -flightdir, and
# (3) keep the steady-state allocation budgets at exactly zero with the
# always-on recorder installed.
tailcheck:
	@dir=$${TMPDIR:-/tmp}/fvbench-tailcheck; rm -rf $$dir; mkdir -p $$dir; \
	$(GO) run ./cmd/fvbench -n 1500 -payloads 64 \
		-faults "needsreset:every=120:count=4,engineerr:every=90:count=4,irqdrop:every=150:count=6,cplpoison:every=400:count=4" \
		-json $$dir/tail.json -flightdir $$dir/flights table1 > /dev/null; \
	grep -q '"tail_attribution"' $$dir/tail.json || { echo "tailcheck: artifact lacks tail_attribution"; exit 1; }; \
	n=$$(ls $$dir/flights/flight_*.json 2>/dev/null | wc -l); \
	[ "$$n" -ge 2 ] || { echo "tailcheck: expected flight dumps in $$dir/flights, found $$n"; exit 1; }; \
	echo "tailcheck: tail_attribution present, $$n flight dumps"
	$(GO) test -run 'SteadyStateZeroAlloc' -v .

# cover is the per-package coverage gate: the full test suite runs with
# statement coverage, fvcover rolls the merged profile up per package,
# writes the coverage summary artifact, and fails if any package under
# internal/drivers/... or internal/sim drops below its committed floor
# in COVERAGE_baseline.json.
cover:
	@dir=$${TMPDIR:-/tmp}/fvcover; mkdir -p $$dir; \
	$(GO) test -count=1 -coverpkg=./... -coverprofile=$$dir/cover.out ./... > /dev/null || exit 1; \
	$(GO) run ./cmd/fvcover -profile $$dir/cover.out \
		-baseline COVERAGE_baseline.json -summary $$dir/coverage_summary.json

# coverbase deliberately re-records the coverage floors (current
# per-package coverage minus a 2-point margin). Run it only when a PR
# intentionally moves coverage; the diff to COVERAGE_baseline.json is
# the reviewable record.
coverbase:
	@dir=$${TMPDIR:-/tmp}/fvcover; mkdir -p $$dir; \
	$(GO) test -count=1 -coverpkg=./... -coverprofile=$$dir/cover.out ./... > /dev/null || exit 1; \
	$(GO) run ./cmd/fvcover -profile $$dir/cover.out \
		-baseline COVERAGE_baseline.json -write

# chaos is the fault-injection soak gate: the full sweep runs under
# the default chaos plan (experiments.DefaultChaosPlan) with the race
# detector and the fvassert recovery invariants compiled in, and must
# complete with at least one recovery of every class — virtio device
# reset, XDMA channel reset, lost-interrupt watchdog — plus
# byte-identical results at any worker count.
chaos:
	$(GO) test -race -tags fvinvariants -run '^TestChaos' -v ./internal/experiments

ci: build fmt vet lint vuln fuzzseed flake chaos cover smoke benchsmoke simref docscheck tailcheck
	@echo "ci: all checks passed"

clean:
	$(GO) clean ./...
