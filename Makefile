# Tier-1 gate for warehousesim (documented in ROADMAP.md).
#
#   make check   — everything CI runs: vet, lint, build, race tests,
#                  gofmt, shard-equivalence (sharded kernel must
#                  reproduce the single-heap export byte-for-byte)
#   make lint    — whvet, the repo's own static-invariant suite
#                  (determinism, allocation, link-boundary; DESIGN.md §11)
#   make test    — plain tests (the seed tier-1 command)
#   make bench   — benchmark harness with allocation reporting
#   make bench-json — machine-readable micro-bench record (BENCH_$(N).json)
#   make bench-diff — regression-gate BENCH_NEW against BENCH_OLD
#                     (non-zero exit when ns/op regresses past the
#                     tolerance or B/op / allocs/op grow at all)
#   make shard-diff — the shard-equivalence gate on its own
#   make shard-race — the shard engine's tests under the race detector
#                     at GOMAXPROCS 1 and 4 (serial schedules hide
#                     different bugs than parallel ones)
#   make speedup-smoke — kernel workload at 4 shards vs 1 must reach a
#                     1.3x wall-clock speedup (skips on machines with
#                     fewer than 4 CPUs)
#   make slo-diff   — the windowed-SLO equivalence gate: -slo-out must be
#                     byte-identical (whole file) across shard and par counts
#   make energy-diff — the energy-telemetry equivalence gate: -energy-out
#                     must be byte-identical (whole file) across shard and
#                     par counts
#   make fleet-diff — the fleet-hybrid equivalence gate: a whsim fleet
#                     run's -obs-out body must be byte-identical across
#                     shard counts, worker counts, and hot-set orderings
#   make introspect-smoke — start whsim -http, assert /obs/windows,
#                     /obs/shards and /obs/energy serve their schemas
#   make cover      — per-package coverage, with an 80% floor on
#                     internal/obs/...
#   make perfbench-test — the benchmark's faithfulness tests (perfbench is
#                     a module of its own, so ./... does not reach it)

GO ?= go
N ?= 5
BENCH_OLD ?= BENCH_4.json
BENCH_NEW ?= BENCH_5.json
# EFF_FLOOR gates the new record's kernel parallel efficiency at 4
# shards in bench-diff (skipped automatically when the recording
# machine had fewer than 4 CPUs or GOMAXPROCS).
EFF_FLOOR ?= 0.4

.PHONY: check vet lint build test test-race perfbench-test fmt bench bench-json bench-diff shard-diff shard-race speedup-smoke slo-diff energy-diff fleet-diff introspect-smoke cover

check: vet lint build test-race perfbench-test fmt shard-diff shard-race speedup-smoke slo-diff energy-diff fleet-diff introspect-smoke

vet:
	$(GO) vet ./...

# whvet statically enforces what the byte-diff gates below only
# sample: no nondeterminism sources in model code, no unordered map
# iteration on export paths, net/http only behind the introspect
# boundary, allocation discipline in //perf:hotpath functions, and the
# metric-name registry. Findings are suppressed only by reasoned
# //whvet:allow directives (see DESIGN.md §11).
lint:
	$(GO) run ./cmd/whvet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

test-race:
	$(GO) test -race ./...

# perfbench's faithfulness tests check that each benchmark workload, at
# the default seed, reproduces what whbench or whsim prints for the job
# it times. perfbench is its own module (it reaches the program through a
# replace directive), so the root ./... patterns above never run them.
perfbench-test:
	cd perfbench && $(GO) test .

# The shard engine is the only package whose correctness depends on
# goroutine scheduling; -cpu 1,4 runs its race tests under both a
# serial and a genuinely parallel scheduler.
shard-race:
	$(GO) test -race -cpu 1,4 ./internal/des/shard/...

# Wall-clock speedup gate: the compute-dense kernel workload at 4
# shards must beat 1 shard by 1.3x on a machine with >= 4 CPUs (the
# gate skips itself, loudly, anywhere it cannot physically pass).
speedup-smoke:
	$(GO) run ./cmd/whbench -speedup-smoke

fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# Shard-equivalence: a whsim DES run on the sharded kernel must export
# the same observability record at every shard count. The manifest
# (line 1) records the configured shard count, so the gate compares the
# export bodies — every counter, histogram, series sample and event —
# byte-for-byte.
shard-diff:
	@tmp="$$(mktemp -d)"; trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) build -o "$$tmp/whsim" ./cmd/whsim && \
	"$$tmp/whsim" -system emb1 -workload websearch -des -measure 20 \
		-shards 1 -enclosures 4 -boards 2 -obs-out "$$tmp/s1.jsonl" >/dev/null && \
	"$$tmp/whsim" -system emb1 -workload websearch -des -measure 20 \
		-shards 4 -enclosures 4 -boards 2 -obs-out "$$tmp/s4.jsonl" >/dev/null && \
	tail -n +2 "$$tmp/s1.jsonl" > "$$tmp/s1.body" && \
	tail -n +2 "$$tmp/s4.jsonl" > "$$tmp/s4.body" && \
	if cmp -s "$$tmp/s1.body" "$$tmp/s4.body"; then \
		echo "shard-diff: shards=1 and shards=4 exports are byte-identical"; \
	else \
		echo "shard-diff: exports DIVERGED between shards=1 and shards=4:"; \
		cmp "$$tmp/s1.body" "$$tmp/s4.body"; exit 1; \
	fi

# Windowed-SLO equivalence: the -slo-out export carries no shard or
# parallelism count anywhere (manifest included), so the gate compares
# whole files across shard counts and ramp parallelism.
slo-diff:
	@tmp="$$(mktemp -d)"; trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) build -o "$$tmp/whsim" ./cmd/whsim && \
	for s in 1 2 4; do \
		"$$tmp/whsim" -system emb1 -workload websearch -des -measure 20 \
			-shards $$s -enclosures 4 -boards 2 \
			-slo-out "$$tmp/slo-s$$s.jsonl" >/dev/null 2>&1 || exit 1; \
	done && \
	for p in 1 4; do \
		"$$tmp/whsim" -system emb1 -workload websearch -des -measure 20 \
			-par $$p -slo-out "$$tmp/slo-p$$p.jsonl" >/dev/null 2>&1 || exit 1; \
	done && \
	ok=1; \
	for f in slo-s2 slo-s4; do \
		cmp -s "$$tmp/slo-s1.jsonl" "$$tmp/$$f.jsonl" || { \
			echo "slo-diff: $$f.jsonl DIVERGED from slo-s1.jsonl:"; \
			cmp "$$tmp/slo-s1.jsonl" "$$tmp/$$f.jsonl"; ok=0; }; \
	done; \
	cmp -s "$$tmp/slo-p1.jsonl" "$$tmp/slo-p4.jsonl" || { \
		echo "slo-diff: par=4 export DIVERGED from par=1:"; \
		cmp "$$tmp/slo-p1.jsonl" "$$tmp/slo-p4.jsonl"; ok=0; }; \
	[ $$ok -eq 1 ] && echo "slo-diff: -slo-out byte-identical across shards 1/2/4 and par 1/4" || exit 1

# Energy equivalence: the -energy-out export carries no shard or
# parallelism count anywhere (manifest included), so the gate compares
# whole files across shard counts and ramp parallelism.
energy-diff:
	@tmp="$$(mktemp -d)"; trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) build -o "$$tmp/whsim" ./cmd/whsim && \
	for s in 1 2 4; do \
		"$$tmp/whsim" -system emb1 -workload websearch -des -measure 20 \
			-shards $$s -enclosures 4 -boards 2 \
			-energy-window 1s -energy-out "$$tmp/en-s$$s.jsonl" >/dev/null 2>&1 || exit 1; \
	done && \
	for p in 1 4; do \
		"$$tmp/whsim" -system emb1 -workload websearch -des -measure 20 \
			-par $$p -energy-window 1s -energy-out "$$tmp/en-p$$p.jsonl" >/dev/null 2>&1 || exit 1; \
	done && \
	ok=1; \
	for f in en-s2 en-s4; do \
		cmp -s "$$tmp/en-s1.jsonl" "$$tmp/$$f.jsonl" || { \
			echo "energy-diff: $$f.jsonl DIVERGED from en-s1.jsonl:"; \
			cmp "$$tmp/en-s1.jsonl" "$$tmp/$$f.jsonl"; ok=0; }; \
	done; \
	cmp -s "$$tmp/en-p1.jsonl" "$$tmp/en-p4.jsonl" || { \
		echo "energy-diff: par=4 export DIVERGED from par=1:"; \
		cmp "$$tmp/en-p1.jsonl" "$$tmp/en-p4.jsonl"; ok=0; }; \
	[ $$ok -eq 1 ] && echo "energy-diff: -energy-out byte-identical across shards 1/2/4 and par 1/4" || exit 1

# Fleet-hybrid equivalence: a fleet run (hot racks on the sharded DES,
# cold racks on the analytic stand-in) must export the same
# observability record at every shard count, every worker count, and
# every ordering of the same hot set. The manifest (line 1) records the
# configured shape, so the gate compares export bodies byte-for-byte.
fleet-diff:
	@tmp="$$(mktemp -d)"; trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) build -o "$$tmp/whsim" ./cmd/whsim && \
	base="-system emb1 -workload websearch -des -measure 10 \
		-racks 12 -enclosures 4 -boards 2"; \
	"$$tmp/whsim" $$base -hot-set 3,9 -shards 2 \
		-obs-out "$$tmp/a.jsonl" >/dev/null && \
	"$$tmp/whsim" $$base -hot-set 9,3 -shards 2 \
		-obs-out "$$tmp/b.jsonl" >/dev/null && \
	"$$tmp/whsim" $$base -hot-set 3,9 -shards 1 \
		-obs-out "$$tmp/c.jsonl" >/dev/null && \
	"$$tmp/whsim" $$base -hot-set 3,9 -shards 4 -par 4 \
		-obs-out "$$tmp/d.jsonl" >/dev/null && \
	for f in a b c d; do tail -n +2 "$$tmp/$$f.jsonl" > "$$tmp/$$f.body"; done && \
	ok=1; \
	for f in b c d; do \
		cmp -s "$$tmp/a.body" "$$tmp/$$f.body" || { \
			echo "fleet-diff: $$f.jsonl body DIVERGED from a.jsonl:"; \
			cmp "$$tmp/a.body" "$$tmp/$$f.body"; ok=0; }; \
	done; \
	[ $$ok -eq 1 ] && echo "fleet-diff: fleet exports byte-identical across hot-set order, shards 1/2/4, par 4" || exit 1

# Introspection smoke: start whsim with the live endpoints on an
# ephemeral port, poll /obs/windows, /obs/shards and /obs/energy until
# they publish, and assert each serves its schema tag.
introspect-smoke:
	@tmp="$$(mktemp -d)"; trap 'rm -rf "$$tmp"; kill $$pid 2>/dev/null || true' EXIT; \
	$(GO) build -o "$$tmp/whsim" ./cmd/whsim || exit 1; \
	: >"$$tmp/log"; \
	"$$tmp/whsim" -system emb1 -workload websearch -des -measure 600 \
		-shards 2 -enclosures 4 -boards 2 -slo-window 1s -energy-window 1s \
		-http 127.0.0.1:0 >/dev/null 2>"$$tmp/log" & pid=$$!; \
	addr=""; for i in $$(seq 1 50); do \
		addr="$$(sed -n 's|.*serving http://\([^ ]*\) .*|\1|p' "$$tmp/log" | head -1)"; \
		[ -n "$$addr" ] && break; sleep 0.2; \
	done; \
	[ -n "$$addr" ] || { echo "introspect-smoke: server never announced its address"; cat "$$tmp/log"; exit 1; }; \
	win=""; for i in $$(seq 1 100); do \
		win="$$(curl -sf "http://$$addr/obs/windows" 2>/dev/null)" && break; sleep 0.2; \
	done; \
	echo "$$win" | grep -q '"schema":"warehousesim-windows/v1"' || { \
		echo "introspect-smoke: /obs/windows missing schema: $$win"; exit 1; }; \
	sh="$$(curl -sf "http://$$addr/obs/shards")" || { echo "introspect-smoke: /obs/shards unreachable"; exit 1; }; \
	echo "$$sh" | grep -q '"schema":"warehousesim-shards/v1"' || { \
		echo "introspect-smoke: /obs/shards missing schema: $$sh"; exit 1; }; \
	echo "$$sh" | grep -q '"shards":2' || { \
		echo "introspect-smoke: /obs/shards does not report 2 shards: $$sh"; exit 1; }; \
	en=""; for i in $$(seq 1 100); do \
		en="$$(curl -sf "http://$$addr/obs/energy" 2>/dev/null)" && break; sleep 0.2; \
	done; \
	echo "$$en" | grep -q '"schema":"warehousesim-energy-live/v1"' || { \
		echo "introspect-smoke: /obs/energy missing schema: $$en"; exit 1; }; \
	kill $$pid 2>/dev/null; \
	echo "introspect-smoke: /obs/windows, /obs/shards and /obs/energy serve their schemas"

# Coverage with a floor on the observability packages: the windowed
# metrics plane is the byte-compared surface, so internal/obs/... must
# hold at least 80% statement coverage.
cover:
	@$(GO) test -cover ./... | tee /dev/stderr | \
	awk '/^ok/ && $$2 ~ /^warehousesim\/internal\/obs/ { \
		for (i = 1; i <= NF; i++) if ($$i == "coverage:") { \
			pct = $$(i+1); sub(/%$$/, "", pct); \
			if (pct + 0 < 80) { printf "cover: %s at %s%% (floor 80%%)\n", $$2, pct; bad = 1 } } } \
	END { exit bad }'

bench:
	$(GO) test -bench=. -benchmem -run=NONE .

bench-json:
	$(GO) run ./cmd/whbench -bench-json BENCH_$(N).json

bench-diff:
	$(GO) run ./cmd/whbench -bench-diff -eff-floor $(EFF_FLOOR) $(BENCH_OLD) $(BENCH_NEW)
