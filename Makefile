# Tier-1 gate for warehousesim (documented in ROADMAP.md).
#
#   make check   — everything CI runs: vet, lint, build, race tests
#                  (including the golden digests and the export
#                  invariance test in internal/cluster), gofmt, the
#                  introspection smoke and the benchmark's tests
#   make lint    — whvet, the repo's own static-invariant suite
#                  (determinism, allocation, link-boundary; DESIGN.md §11)
#   make test    — plain tests (the seed tier-1 command)
#   make bench   — benchmark harness with allocation reporting
#   make bench-json — machine-readable micro-bench record (BENCH_$(N).json)
#   make bench-diff — regression-gate BENCH_NEW against BENCH_OLD
#                     (non-zero exit when ns/op regresses past the
#                     tolerance or B/op / allocs/op grow at all)
#   make introspect-smoke — start whsim -http, assert /obs/windows and
#                     /obs/energy serve their schemas
#   make cover      — per-package coverage, with an 80% floor on
#                     internal/obs/...
#   make perfbench-test — the benchmark's faithfulness tests (perfbench is
#                     a module of its own, so ./... does not reach it)

GO ?= go
N ?= 6
BENCH_OLD ?= BENCH_5.json
BENCH_NEW ?= BENCH_6.json

.PHONY: check vet lint build test test-race perfbench-test fmt bench bench-json bench-diff introspect-smoke cover

check: vet lint build test-race perfbench-test fmt introspect-smoke

vet:
	$(GO) vet ./...

# whvet statically enforces what the golden and invariance tests only
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

fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# Introspection smoke: start whsim with the live endpoints on an
# ephemeral port, poll /obs/windows and /obs/energy until they publish,
# and assert each serves its schema tag.
introspect-smoke:
	@tmp="$$(mktemp -d)"; trap 'rm -rf "$$tmp"; kill $$pid 2>/dev/null || true' EXIT; \
	$(GO) build -o "$$tmp/whsim" ./cmd/whsim || exit 1; \
	: >"$$tmp/log"; \
	"$$tmp/whsim" -system emb1 -workload websearch -des -measure 600 \
		-shards 1 -enclosures 4 -boards 2 -slo-window 1s -energy-window 1s \
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
	en=""; for i in $$(seq 1 100); do \
		en="$$(curl -sf "http://$$addr/obs/energy" 2>/dev/null)" && break; sleep 0.2; \
	done; \
	echo "$$en" | grep -q '"schema":"warehousesim-energy-live/v1"' || { \
		echo "introspect-smoke: /obs/energy missing schema: $$en"; exit 1; }; \
	kill $$pid 2>/dev/null; \
	echo "introspect-smoke: /obs/windows and /obs/energy serve their schemas"

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
	$(GO) run ./cmd/whbench -bench-diff $(BENCH_OLD) $(BENCH_NEW)
