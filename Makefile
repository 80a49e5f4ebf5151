# PriView build and verification targets. `make check` is the full
# local gate, mirroring what CI runs.

GO ?= go

.PHONY: all build vet lint lint-bench test race chaos chaos-registry chaos-overload fuzz-short audit bench bench-batch bench-smoke sloc deadcode startup check

all: build

build:
	$(GO) build ./...

# gofmt runs over the tracked files only, so build output such as
# .bench_build/ never reaches it.
vet:
	$(GO) vet ./...
	@unformatted=$$(gofmt -l $$(git ls-files '*.go')); \
	if [ -n "$$unformatted" ]; then echo "gofmt -l lists:"; echo "$$unformatted"; exit 1; fi

# priview-lint is this repo's own static-analysis gate: five AST checks
# (randsource, floatcmp, errdiscard, panicmsg, attrset) plus four
# whole-program dataflow analyzers (privflow, ctxflow, budgetlit,
# hotalloc) driven by the source/sanitizer/sink table in lint.facts.
# See DESIGN.md §11 and `go run ./cmd/priview-lint -list`.
lint:
	$(GO) run ./cmd/priview-lint ./...

# One-worker vs parallel wall-clock for the lint driver's load+analyze
# pipeline, as -stats prints it: the loader and the analysis fan out
# over GOMAXPROCS workers, so GOMAXPROCS=1 runs both on one. Reference
# numbers live in BENCH_lint.json.
lint-bench:
	$(GO) build -o $(or $(TMPDIR),/tmp)/priview-lint-bench ./cmd/priview-lint
	GOMAXPROCS=1 $(or $(TMPDIR),/tmp)/priview-lint-bench -stats ./...
	$(or $(TMPDIR),/tmp)/priview-lint-bench -stats ./...

test:
	$(GO) test ./...

# The race lane uses -short so the race-enabled run finishes quickly;
# `make test` (part of `make check`) still runs everything at full
# size, including the goldens -short skips.
race:
	$(GO) test -race -short ./...

# The fault-injection suite: chaos transport + slow-synopsis tests,
# deadline/shedding/panic status mapping, retrying client, graceful
# shutdown, and the query-cache singleflight/handoff protocol. Always
# under the race detector — the failure paths are exactly where
# concurrency bugs hide. See DESIGN.md §7 and §9.
chaos:
	$(GO) test -race ./internal/chaos/ ./internal/server/ ./internal/qcache/ ./cmd/priview-serve/

# The multi-tenant isolation suite: registry unit tests (breaker
# trip/half-open/recover on a fake clock, bulkheads, LRU eviction with
# cache-warm handoff, reconciler churn), the two-tenant fault-pinning
# proof (torn snapshots / NaN poison / slow loader against one release
# while 12 workers stream the other — zero errors, bounded p99), and
# the hot-reload race. Always under -race. See DESIGN.md §12.
chaos-registry:
	$(GO) test -race ./internal/registry/
	$(GO) test -race -run 'TestRegistryTenantIsolation' ./internal/chaos/
	$(GO) test -race -run 'TestReloadRaceServesCleanly' ./cmd/priview-serve/

# The overload-control suite: admission controller unit tests, the 2×
# overload storm (goodput floor, bounded admitted p99 with a slow
# solver), the mixed single+batch storm over the batched marginal
# route, the client retry-amplification bound, and the greedy-tenant
# fairness proof. Always under -race. Set PRIVIEW_OVERLOAD_REPORT to a
# path to capture the storm's latency partitions as JSON, and
# PRIVIEW_METRICS_SNAPSHOT to capture the mid-storm /metrics scrape
# (CI uploads both as artifacts). See DESIGN.md §13 and §15.
chaos-overload:
	$(GO) test -race ./internal/admission/
	$(GO) test -race -run 'TestOverloadStorm|TestBatchOverloadStorm|TestRetryAmplificationBounded|TestGreedyTenantFairness' ./internal/chaos/

# The query-cache benchmarks (cached vs uncached reconstruction at the
# qcache and HTTP layers) plus the attrset before/after suite (pairwise
# set scan, intersection closure, constraint dedupe, solver hot-loop
# projection — each Old/New pair in the same binary), and the two steps
# of a release load (snapshot decode, audit) on the benchmark's
# C3(8,·) d=32 release shape. Reference numbers live in
# BENCH_qcache.json and BENCH_attrset.json; see DESIGN.md §8–§10.
BENCHTIME ?= 1s
bench:
	$(GO) test -run='^$$' -bench='BenchmarkQueryCached|BenchmarkQueryUncached' -benchmem -benchtime=$(BENCHTIME) ./internal/qcache/
	$(GO) test -run='^$$' -bench='BenchmarkServerMarginal' -benchmem -benchtime=$(BENCHTIME) ./internal/server/
	$(GO) test -run='^$$' -bench='BenchmarkDedupeIdentical' -benchmem -benchtime=$(BENCHTIME) ./internal/reconstruct/
	$(GO) test -run='^$$' -bench='BenchmarkPairwiseScan|BenchmarkIntersectionClosure|BenchmarkFromAttrs' -benchmem -benchtime=$(BENCHTIME) ./internal/attrset/
	$(GO) test -run='^$$' -bench='BenchmarkHotLoopProjection' -benchmem -benchtime=$(BENCHTIME) ./internal/marginal/
	$(GO) test -run='^$$' -bench='BenchmarkDecode|BenchmarkWrite' -benchmem -benchtime=$(BENCHTIME) ./internal/snapshot/
	$(GO) test -run='^$$' -bench='BenchmarkCheck' -benchmem -benchtime=$(BENCHTIME) ./internal/audit/

# Batched-query wall-clock: QueryBatch vs the sequential loop on the
# all-3-way workload, both paths in one binary. Reference numbers (and
# the single-CPU-runner caveat) live in BENCH_batch.json.
bench-batch:
	$(GO) test -run='^$$' -bench='BenchmarkAllThreeWaySequential|BenchmarkAllThreeWayBatch' -benchmem -benchtime=$(BENCHTIME) ./internal/core/

# The repo benchmark (bench/, its own module) at smoke size: vet, then
# every bench test at full size — TestBenchSmoke builds priview and
# priview-serve from this tree, starts priview-serve -synopsis, drives
# every workload untraced and traced, and checks every answer and every
# /metrics series the benchmark scrapes. A serving change that breaks
# either fails here rather than in the post-merge benchmark. -count=1:
# the binaries are built in a subprocess, so go test's result cache
# cannot see a change to the root module and would replay a stale pass.
bench-smoke:
	$(GO) -C bench vet ./...
	$(GO) -C bench test -count=1 ./...

# Short coverage-guided fuzz runs over the untrusted-input decoders:
# snapshot container parsing and synopsis decoding, each checked
# against encoding/json as the reference, the audit-over-load
# pipeline, and the reader's float conversion against strconv. Ten seconds per target keeps the gate fast; longer
# campaigns can raise FUZZTIME. Minimizing each new input from the
# multi-KB seeds is capped at 100 runs: uncapped, it takes most of the
# ten seconds and the target barely mutates. The checked-in seed corpus
# also runs in plain `make test`.
FUZZTIME ?= 10s
fuzz-short:
	$(GO) test -run='^$$' -fuzz=FuzzSnapshotLoad -fuzztime=$(FUZZTIME) -fuzzminimizetime=100x ./internal/snapshot/
	$(GO) test -run='^$$' -fuzz=FuzzLoad -fuzztime=$(FUZZTIME) -fuzzminimizetime=100x ./internal/core/
	$(GO) test -run='^$$' -fuzz=FuzzAuditReport -fuzztime=$(FUZZTIME) -fuzzminimizetime=100x ./internal/audit/
	$(GO) test -run='^$$' -fuzz=FuzzFloat -fuzztime=$(FUZZTIME) -fuzzminimizetime=100x ./internal/jsonread/

# Build a small synopsis and run the release auditor over it — an
# end-to-end smoke of the publish gate (`priview build` refuses to
# publish a synopsis the auditor rejects; see DESIGN.md §8).
audit:
	@tmp=$$(mktemp -d) && trap 'rm -rf $$tmp' EXIT && \
	$(GO) run ./cmd/priview generate -dataset msnbc -n 2000 -seed 1 -out $$tmp/data.txt && \
	$(GO) run ./cmd/priview build -in $$tmp/data.txt -eps 1.0 -snapshot -out $$tmp/syn.json && \
	$(GO) run ./cmd/priview audit $$tmp/syn.json

# Added, removed and net non-test Go lines per package between BASE and
# the working tree, from git diff --numstat: the figure ROADMAP asks
# simplicity changes to report. Test files, testdata/ and the bench/
# module are left out of the total; one last row shows the test and
# testdata/ Go lines beside it, since code moved into tests is not a
# reduction. A new file counts once it is in the index (git add). Not
# part of check.
sloc:
	@if [ -z "$(BASE)" ]; then echo "usage: make sloc BASE=<commit>" >&2; exit 2; fi
	@git diff --numstat --no-renames $(BASE) -- '*.go' ':!*_test.go' ':!*testdata/*' ':!bench/*' | \
	awk '{ p = $$3; if (!sub("/[^/]*$$", "", p)) p = "."; a[p] += $$1; r[p] += $$2; ta += $$1; tr += $$2 } \
	END { f = "%-24s %7s %7s %7s\n"; printf f, "package", "added", "removed", "net"; \
		for (p in a) printf f, p, a[p], r[p], sprintf("%+d", a[p] - r[p]) | "sort"; close("sort"); \
		printf f, "total", ta + 0, tr + 0, sprintf("%+d", ta - tr) }'
	@git diff --numstat --no-renames $(BASE) -- '*_test.go' '*testdata/*.go' ':!bench/*' | \
	awk '{ ta += $$1; tr += $$2 } \
	END { printf "%-24s %7s %7s %7s\n", "tests (not counted)", ta + 0, tr + 0, sprintf("%+d", ta - tr) }'

# Startup A/B against BASE: priview-serve built from a git archive of
# BASE and from the working tree, SPAWNS servers per side spawned one at
# a time on the benchmark's release shape under chrt --idle, alternating
# which side goes first. Prints per side the median and quartiles of
# spawn → first /healthz 200 and of the release.load and release.audit
# stages from /metrics, and the host. Not part of check.
SPAWNS ?= 15
startup:
	@if [ -z "$(BASE)" ]; then echo "usage: make startup BASE=<commit>" >&2; exit 2; fi
	$(GO) run ./cmd/priview-startup -base $(BASE) -spawns $(SPAWNS)

# Functions no binary links. Every main package and bench/ are built
# with inlining off (-gcflags=all=-l), so a called function cannot
# vanish into its caller, and the text symbols go tool nm lists are
# matched against the func declarations in the non-test Go files of
# every package go list finds that is not package main (testdata is
# never listed). Each unlinked function prints as pkg.Func file:line
# unless a line of deadcode.keep covers it: a symbol, or a package or
# type prefix, then # and the reason it stays. Keep entries that cover
# nothing print too, and the target fails if it printed anything. Not
# part of check.
deadcode:
	@tmp=$$(mktemp -d) && trap 'rm -rf $$tmp' EXIT && \
	$(GO) build -gcflags=all=-l -o $$tmp/bin/ ./... && \
	$(GO) -C bench build -gcflags=all=-l -o $$tmp/bin/bench . && \
	for b in $$tmp/bin/*; do $(GO) tool nm $$b >> $$tmp/nm || exit 2; done && \
	awk '$$2 == "T" || $$2 == "t" { sub(/^ *[0-9a-f]* [Tt] /, ""); print }' $$tmp/nm > $$tmp/syms && \
	$(GO) list -f '{{if ne .Name "main"}}{{range .GoFiles}}{{$$.ImportPath}} {{.}} {{$$.Dir}}/{{.}}{{"\n"}}{{end}}{{end}}' ./... > $$tmp/files && \
	awk -v syms=$$tmp/syms -v files=$$tmp/files -v mod=$$($(GO) list -m) ' \
	function unbracket(s,   out, c, i, depth) { \
		for (i = 1; i <= length(s); i++) { c = substr(s, i, 1); \
			if (c == "[") depth++; else if (c == "]") depth--; else if (!depth) out = out c } \
		return out } \
	function decl(line, pkg, where,   s, r, n, f, recv, name, sym, k) { \
		s = substr(line, 6); \
		if (s ~ /^\(/) { r = s; sub(/\).*/, "", r); s = substr(s, length(r) + 3); sub(/\[.*/, "", r); \
			n = split(substr(r, 2), f, " "); recv = f[n] ~ /^\*/ ? "(" f[n] ")." : f[n] "." } \
		name = s; sub(/[[(].*/, "", name); sym = pkg "." recv name; \
		if (name == "init" || name == "_" || sym in linked) return; \
		for (k = 1; k <= nk; k++) if (sym == keep[k] || index(sym, keep[k] ".") == 1) { used[k] = 1; return } \
		print sym, where; bad = 1 } \
	FILENAME == syms { linked[unbracket($$0)] = 1; next } \
	FILENAME == "deadcode.keep" { sub(/#.*/, ""); if (NF) { nk++; keep[nk] = $$1; kline[nk] = FNR }; next } \
	FILENAME == files { where = ($$1 == mod ? "" : substr($$1, length(mod) + 2) "/") $$2; \
		path = substr($$0, length($$1) + length($$2) + 3); ln = 0; \
		while ((getline line < path) > 0) { ln++; if (line ~ /^func /) decl(line, $$1, where ":" ln) } \
		close(path) } \
	END { for (k = 1; k <= nk; k++) if (!used[k]) { print "deadcode.keep:" kline[k] ": " keep[k] " covers no unlinked function"; bad = 1 } \
		exit bad }' \
	$$tmp/syms deadcode.keep $$tmp/files

# The two benchmark suites run once per benchmark (BENCHTIME=1x), as
# CI's smoke steps do: they prove the benchmarks still build and run.
check: build vet lint test race chaos chaos-registry chaos-overload fuzz-short audit bench-smoke
	$(MAKE) bench bench-batch BENCHTIME=1x
