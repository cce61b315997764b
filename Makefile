# Makefile — entry points for the CI gate and its individual stages.
# `make check` is the whole gate (scripts/check.sh); the other targets run
# one stage each for fast local iteration. See LINTING.md for the lint
# rules and escape hatches.

GO ?= go
FUZZTIME ?= 5s

.PHONY: check build test lint lint-json lint-sarif lint-race escapegate bcegate inlinegate lint-gates race trace-smoke bench bench-kernels bench-smoke bench-gate fuzz-smoke conform conform-full report-smoke load-smoke perfbench-smoke fmt

## check: run the full CI gate (fmt, vet, build, lint, test, race, fuzz)
check:
	FUZZTIME=$(FUZZTIME) ./scripts/check.sh

## build: compile every package
build:
	$(GO) build ./...

## test: tier-1 verify
test:
	$(GO) test ./...

## lint: repo-specific static analysis (cmd/iawjlint)
lint:
	$(GO) run ./cmd/iawjlint ./...

## lint-json: machine-readable findings — SARIF to lint.sarif, JSON to stdout
lint-json:
	$(GO) run ./cmd/iawjlint -sarif ./... > lint.sarif
	$(GO) run ./cmd/iawjlint -json ./...

## lint-sarif: SARIF 2.1.0 findings on stdout (for code-scanning upload)
lint-sarif:
	$(GO) run ./cmd/iawjlint -sarif ./...

## lint-race: only the whole-program race rules (guardinfer, atomicmix, goescape)
lint-race:
	$(GO) run ./cmd/iawjlint -rules guardinfer,atomicmix,goescape ./...

## escapegate: only the escape-analysis stage of the lint gate
escapegate:
	$(GO) run ./cmd/iawjlint -rules escapegate ./...

## bcegate: only the bounds-check-elimination gate (-d=ssa/check_bce verdicts)
bcegate:
	$(GO) run ./cmd/iawjlint -rules bcegate ./...

## inlinegate: only the //iawj:inline budget gate (-m=2 inliner verdicts)
inlinegate:
	$(GO) run ./cmd/iawjlint -rules inlinegate ./...

## lint-gates: all three build-diagnostics gates off one shared -gcflags build
lint-gates:
	$(GO) run ./cmd/iawjlint -rules escapegate,bcegate,inlinegate ./...

## race: full test suite under the race detector
race:
	$(GO) test -race ./...

## trace-smoke: tiny benchmark with -trace, validate spans for every phase
trace-smoke:
	$(GO) run ./cmd/iawjbench -exp fig7 -scale 0.01 -spancap 65536 -trace /tmp/iawj-trace-smoke.json >/dev/null
	$(GO) run ./cmd/iawjtrace -q -want "wait,partition,build/sort,merge,probe,others" /tmp/iawj-trace-smoke.json
	rm -f /tmp/iawj-trace-smoke.json

## bench: short per-algorithm benchmark sweep, writes BENCH_2.json
bench:
	./scripts/bench.sh

## bench-kernels: kernel-layer sweep (partition/partition_build/build/probe),
## writes BENCH_3.json; 300 iterations per variant for recordable numbers
bench-kernels:
	BENCHTIME=$${BENCHTIME:-300x} ./scripts/bench.sh kernels

## bench-smoke: every kernel microbenchmark once, under the race detector
bench-smoke:
	$(GO) test -race -run '^$$' -bench '^BenchmarkKernel' -benchtime=1x ./internal/radix ./internal/hashtable

## bench-gate: kernel sweep vs recorded BENCH_3.json, exit 1 on >10% regression
bench-gate:
	./scripts/bench.sh -compare BENCH_3.json

## fuzz-smoke: short fuzz run on the gen/ingest parsers + conformance
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz='^FuzzReadCSV$$' -fuzztime=$(FUZZTIME) ./internal/gen
	$(GO) test -run='^$$' -fuzz='^FuzzReadStream$$' -fuzztime=$(FUZZTIME) ./internal/ingest
	$(GO) test -run='^$$' -fuzz='^FuzzReadBinary$$' -fuzztime=$(FUZZTIME) ./internal/ingest
	$(GO) test -run='^$$' -fuzz='^FuzzMergeJoinRuns$$' -fuzztime=$(FUZZTIME) ./internal/sortmerge
	$(GO) test -run='^$$' -fuzz='^FuzzConformance$$' -fuzztime=$(FUZZTIME) ./internal/oracle

## conform: conformance smoke matrix under the race detector (see TESTING.md)
conform:
	$(GO) run -race ./cmd/iawjconform -smoke

## conform-full: the full differential + metamorphic conformance sweep
conform-full:
	$(GO) run ./cmd/iawjconform

## report-smoke: windowed two-algorithm sweep -> journal -> iawjreport self-compare
report-smoke:
	rm -f /tmp/iawj-report-smoke.jsonl
	$(GO) run ./cmd/iawjjoin -workload Stock -scale 0.002 -atrest -algorithm NPJ -windowms 50 -journal /tmp/iawj-report-smoke.jsonl >/dev/null
	$(GO) run ./cmd/iawjjoin -workload Stock -scale 0.002 -atrest -algorithm SHJ_JM -windowms 50 -journal /tmp/iawj-report-smoke.jsonl >/dev/null
	$(GO) run ./cmd/iawjreport -self /tmp/iawj-report-smoke.jsonl
	rm -f /tmp/iawj-report-smoke.jsonl

## load-smoke: validate every checked-in workload spec, then a short
## open-loop run of the mixed spec with per-class journal records
load-smoke:
	for spec in examples/specs/*.json; do \
		$(GO) run ./cmd/iawjload -spec $$spec -validate >/dev/null || exit 1; \
	done
	rm -f /tmp/iawj-load-smoke.jsonl
	$(GO) run ./cmd/iawjload -spec examples/specs/mixed.json -nspms 1000000 -algorithm SHJ_JM -journal /tmp/iawj-load-smoke.jsonl >/dev/null
	$(GO) run ./cmd/iawjreport -self /tmp/iawj-load-smoke.jsonl
	rm -f /tmp/iawj-load-smoke.jsonl

## perfbench-smoke: the benchmark module's tests in perfbench/run.sh's
## build environment, so the program keeps the APIs the benchmark calls
perfbench-smoke:
	./scripts/perfbench-smoke.sh

## fmt: apply gofmt to the tree
fmt:
	gofmt -w .
