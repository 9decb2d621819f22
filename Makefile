# Developer entry points for the GADT reproduction.
#
#   make check      - formatting, vet, build, tests, the bench/ smoke test, every
#                     benchmark once, plint over testdata, fuzz + journal smokes
#   make build      - compile every package and command
#   make test       - run the test suite
#   make bench      - run every microbenchmark once (no tests); the end-to-end
#                     benchmark is bench/run.sh (see bench/README.md)
#   make loc        - count non-test Go lines per package and in total
#   make mutate     - run the full mutation campaign, write BENCH_mutation.json
#   make diff       - run the differential equivalence campaign, write BENCH_diff.json
#   make trace-smoke - record Chrome traces (gadt + pmut + pdiff) and validate them
#   make serve-smoke - boot gadt-serve, drive a curl session, scrape /metrics
#   make lint       - run plint over testdata, with and without -pval; fails
#                     on a usage error or a crash, not on findings
#   make staticcheck - run staticcheck when installed (CI pins its version)
#   make fmt        - rewrite sources with gofmt

GO ?= go
FUZZTIME ?= 5s

.PHONY: check build test bench loc mutate diff trace-smoke serve-smoke lint staticcheck fmt smoke-journal smoke-fuzz

# Where trace-smoke leaves its artifacts (CI uploads this directory).
TRACE_DIR ?= trace-out

check:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi
	$(GO) vet ./...
	$(GO) build ./...
	$(GO) test ./...
	cd bench && $(GO) vet ./...
	cd bench && $(GO) test ./...
	$(MAKE) bench
	$(MAKE) lint
	$(MAKE) smoke-fuzz
	$(MAKE) smoke-journal

# Short coverage-guided fuzz runs: the lexer, the parser and the HTTP
# session API must survive arbitrary inputs without panicking, and the
# interpreter's traced and untraced paths must agree on every generated
# program (one -fuzz pattern per package).
smoke-fuzz:
	$(GO) test -run='^$$' -fuzz=FuzzLexer -fuzztime=$(FUZZTIME) ./internal/pascal/lexer
	$(GO) test -run='^$$' -fuzz=FuzzParser -fuzztime=$(FUZZTIME) ./internal/pascal/parser
	$(GO) test -run='^$$' -fuzz=FuzzSessionAPI -fuzztime=$(FUZZTIME) ./internal/serve
	$(GO) test -run='^$$' -fuzz=FuzzTracedVsUntraced -fuzztime=$(FUZZTIME) ./internal/pascal/interp

# Record a debugging session against the known-good reference, then
# replay it with stdin closed: both runs must localize the same unit and
# the replay must not need any interactive answer.
smoke-journal:
	@tmp=$$(mktemp -d); \
	$(GO) run ./cmd/gadt -reference testdata/sqrtest_fixed.pas -stats \
		-journal $$tmp/session.jsonl testdata/sqrtest.pas > $$tmp/record.out || exit 1; \
	$(GO) run ./cmd/gadt -replay $$tmp/session.jsonl testdata/sqrtest.pas \
		< /dev/null > $$tmp/replay.out || exit 1; \
	rec=$$(grep 'localized inside the body of' $$tmp/record.out); \
	rep=$$(grep 'localized inside the body of' $$tmp/replay.out); \
	if [ -z "$$rec" ] || [ "$$rec" != "$$rep" ]; then \
		echo "journal round-trip mismatch:"; \
		echo "  record: $$rec"; echo "  replay: $$rep"; exit 1; \
	fi; \
	queries=$$(grep -c '"kind":"query"' $$tmp/session.jsonl); \
	stats=$$(awk '$$1 == "debugger.oracle.queries" {print $$2}' $$tmp/record.out); \
	if [ "$$queries" != "$$stats" ]; then \
		echo "journal has $$queries queries but -stats counted $$stats"; exit 1; \
	fi; \
	rm -rf $$tmp; \
	echo "journal round-trip ok: $$rec ($$queries queries)"

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# One iteration of every benchmark: proves none has rotted, measures
# nothing. bench/ is a module of its own and is not included; check
# runs its smoke test.
bench:
	$(GO) test -run='^$$' -bench=. -benchmem -benchtime=1x ./...

# Non-test Go lines per package directory, then the total.
loc:
	@$(GO) list -f '{{range .GoFiles}}{{$$.Dir}}/{{.}} {{end}}' ./... | xargs wc -l | \
		awk '$$2 != "total" { sub("^$(CURDIR)/", "", $$2); sub("/[^/]*$$", "", $$2); n[$$2] += $$1; t += $$1 } \
		END { for (p in n) printf "%6d  %s\n", n[p], p | "sort -k2"; close("sort -k2"); printf "%6d  total\n", t }'

# Fault-injection evaluation: mutate every subject program, run each
# mutant through the debugger with the unmutated original as oracle.
# -gate fails the run if weighted divide-and-query's median question
# count regresses above plain divide-and-query's.
mutate:
	$(GO) run ./cmd/pmut -budget 240 -seed 1 -gate -json BENCH_mutation.json

# Differential equivalence campaign: every generated/corpus program is
# run untransformed and through every transformation stage combination;
# stdout and final global state must agree. Exit 1 on any divergence;
# minimized counterexamples land in testdata/diff/.
diff:
	$(GO) run ./cmd/pdiff -n 250 -seed 1 -dir testdata/diff -json BENCH_diff.json

# Record three Perfetto-loadable traces — a single-lane debugging
# session, a multi-lane mutation campaign and a multi-lane differential
# campaign — then validate them with cmd/tracecheck: well-formed JSON,
# balanced B/E per lane, nested spans, labeled thread_name lanes.
trace-smoke:
	mkdir -p $(TRACE_DIR)
	$(GO) run ./cmd/gadt -reference testdata/sqrtest_fixed.pas \
		-trace-out $(TRACE_DIR)/gadt.trace.json testdata/sqrtest.pas > /dev/null
	$(GO) run ./cmd/pmut -budget 12 -seed 1 -workers 2 -json "" \
		-trace-out $(TRACE_DIR)/pmut.trace.json > /dev/null
	$(GO) run ./cmd/pdiff -n 12 -seed 1 -workers 2 -json "" \
		-trace-out $(TRACE_DIR)/pdiff.trace.json > /dev/null
	$(GO) run ./cmd/tracecheck $(TRACE_DIR)/gadt.trace.json $(TRACE_DIR)/pmut.trace.json \
		$(TRACE_DIR)/pdiff.trace.json

# Where serve-smoke leaves its transcript (CI uploads this directory).
SERVE_SMOKE_DIR ?= serve-smoke-out

# End-to-end binary smoke: build and boot gadt-serve on an ephemeral
# port, replay the checked-in CLI journal over curl, require the
# decrement diagnosis and nonzero serve_* counters on /metrics.
serve-smoke:
	sh scripts/serve-smoke.sh $(SERVE_SMOKE_DIR)

# plint is built once, so its own exit status reaches the shell (go run
# turns every failure into 1). Status 1 only reports findings: the
# fixture plants error-severity ones. 2 or more is a usage error or a
# crash (a Go panic exits 2) and fails the target.
lint:
	@tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) build -o "$$tmp/plint" ./cmd/plint || exit 1; \
	for flag in "" -pval; do \
		"$$tmp/plint" $$flag testdata/*.pas testdata/diff/*.pas > /dev/null; st=$$?; \
		if [ $$st -ge 2 ]; then \
			echo "plint$${flag:+ $$flag} over testdata: exit status $$st"; exit 1; \
		fi; \
	done; \
	echo "plint over testdata ok (with and without -pval)"

# Static analysis beyond go vet. The tool is not vendored; install it
# with `go install honnef.co/go/tools/cmd/staticcheck@2023.1.7` (the
# version CI pins). Skips with a notice when the binary is absent so
# `make check` stays runnable offline.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (CI runs it pinned)"; \
	fi

fmt:
	gofmt -w .
