GO ?= go

.PHONY: all check fmt vet build test bench-check shuffle cover bench bench-json bench-gate fuzz loadtest loadtest-full trace-e2e lines

all: check

# check chains every gate in order: formatting, vet, build, the full test
# suite under the race detector, the bench module's vet and tests, a fuzz
# smoke pass, then a short benchmark pass.
check: fmt vet build test bench-check fuzz bench

fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# vet also fails if any package of the root module imports unsafe: no
# simulator code needs it, and the check keeps it that way. bench/ is
# its own module and is not checked.
vet:
	$(GO) vet ./...
	@pkgs=$$($(GO) list -f '{{range .Imports}}{{if eq . "unsafe"}}{{$$.ImportPath}} {{end}}{{end}}' ./...); \
		if [ -n "$$pkgs" ]; then echo "packages importing unsafe: $$pkgs"; exit 1; fi

build:
	$(GO) build ./...

# test runs the suite under the race detector, then runs the fan-out
# engine and its two replay callers again at -cpu 1. On one P the engine
# hands each chunk to every consumer inline, and that is the path a
# one-CPU host (and the benchmark's pinned cachesim) takes, so a
# many-core runner must exercise it too.
test:
	$(GO) test -race ./...
	$(GO) test -race -cpu 1 ./internal/fanout ./sim ./cmd/cachesim

# bench-check vets and tests the benchmark harness. bench/ is its own
# module (it imports sim and internal packages through a replace
# directive), so the root build and test never compile it.
bench-check:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# lines prints the non-test Go line count of each directory, then the
# net total on the last line: the size metric ROADMAP tracks. It leaves
# out the separate bench/ module and the benchmark's build directory. It
# is informational: no floor, no failure.
lines:
	@find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path './.bench_build/*' \
		-exec wc -l {} + | awk '$$2 != "total" { d = $$2; sub(/\/[^\/]*$$/, "", d); n[d] += $$1; sum += $$1 } \
		END { for (d in n) printf "%6d %s\n", n[d], d | "sort -k2"; close("sort -k2"); print sum }'

# shuffle reruns the whole suite in randomized test and subtest order to
# flush out inter-test state dependence.
shuffle:
	$(GO) test -shuffle=on ./...

# cover enforces coverage floors on the subsystems whose interesting
# branches a quick test run can silently stop exercising: the fan-out
# engine (cancellation, panic relay, backpressure), the job queue
# (retry classification, drain, admission, store quarantine).
FANOUT_COVER_MIN ?= 85.0
JOBQUEUE_COVER_MIN ?= 80.0
cover:
	$(GO) test -coverprofile=cover_fanout.out ./internal/fanout
	@total=$$($(GO) tool cover -func=cover_fanout.out | awk '/^total:/ { sub(/%/, "", $$NF); print $$NF }'); \
	rm -f cover_fanout.out; \
	echo "internal/fanout coverage: $$total% (floor $(FANOUT_COVER_MIN)%)"; \
	awk -v got="$$total" -v min="$(FANOUT_COVER_MIN)" \
		'BEGIN { if (got+0 < min+0) { print "coverage below floor"; exit 1 } }'
	$(GO) test -short -coverprofile=cover_jobqueue.out ./internal/jobqueue
	@total=$$($(GO) tool cover -func=cover_jobqueue.out | awk '/^total:/ { sub(/%/, "", $$NF); print $$NF }'); \
	rm -f cover_jobqueue.out; \
	echo "internal/jobqueue coverage: $$total% (floor $(JOBQUEUE_COVER_MIN)%)"; \
	awk -v got="$$total" -v min="$(JOBQUEUE_COVER_MIN)" \
		'BEGIN { if (got+0 < min+0) { print "coverage below floor"; exit 1 } }'

# fuzz gives each trace-decoder, configuration-grammar, job-request and
# front-end-versus-reference-model fuzz target a short budget — a smoke
# pass that exercises the corpus plus a few seconds of mutation,
# not a soak. FuzzReadTrace and FuzzReadDinero round-trip each format;
# FuzzLenientReaders checks memtrace.NewDecoder's strict, lenient and
# chunked decodes of both formats against each other; FuzzDinVsReference
# checks the din decoder against a reference decoder, written in the
# test with strings.Fields and strconv, that shares no code with it.
# FuzzGroupVsLevels checks levels sharing one cache in a core.Group
# against the same levels each on its own cache, and
# FuzzGroupedSystemsVsSystems checks whole systems replayed one consumer
# per distinct L1 pair (hierarchy.Clusters, as sim.Replay runs them)
# against the same systems replayed alone. FuzzSubmitDecodeVsJSON
# checks the job-body decode, which cuts the trace out and decodes it in
# place, against a whole-body encoding/json decode. Each line caps input
# minimization at one run (-fuzzminimizetime 1x): Go's default of 60s
# would spend the whole budget minimizing the first new input.
FUZZTIME ?= 5s
fuzz:
	$(GO) test ./internal/memtrace -run '^$$' -fuzz FuzzReadTrace -fuzztime $(FUZZTIME) -fuzzminimizetime 1x
	$(GO) test ./internal/memtrace -run '^$$' -fuzz FuzzReadDinero -fuzztime $(FUZZTIME) -fuzzminimizetime 1x
	$(GO) test ./internal/memtrace -run '^$$' -fuzz FuzzLenientReaders -fuzztime $(FUZZTIME) -fuzzminimizetime 1x
	$(GO) test ./internal/memtrace -run '^$$' -fuzz FuzzDinVsReference -fuzztime $(FUZZTIME) -fuzzminimizetime 1x
	$(GO) test ./sim -run '^$$' -fuzz FuzzConfigGrammar -fuzztime $(FUZZTIME) -fuzzminimizetime 1x
	$(GO) test ./internal/jobqueue -run '^$$' -fuzz FuzzSubmitRequest -fuzztime $(FUZZTIME) -fuzzminimizetime 1x
	$(GO) test ./internal/jobqueue -run '^$$' -fuzz FuzzSubmitDecodeVsJSON -fuzztime $(FUZZTIME) -fuzzminimizetime 1x
	$(GO) test ./internal/core -run '^$$' -fuzz FuzzFrontEndVsReference -fuzztime $(FUZZTIME) -fuzzminimizetime 1x
	$(GO) test ./internal/core -run '^$$' -fuzz FuzzGroupVsLevels -fuzztime $(FUZZTIME) -fuzzminimizetime 1x
	$(GO) test ./internal/hierarchy -run '^$$' -fuzz FuzzGroupedSystemsVsSystems -fuzztime $(FUZZTIME) -fuzzminimizetime 1x

# loadtest runs the cachesimd chaos/load test under the race detector:
# concurrent clients flood the daemon's HTTP API, a tenth of them with
# fault-injected traces, and the test verifies zero lost jobs, zero
# results diverging from a direct library replay, and 429-on-overload.
# The default profile is CI-sized; loadtest-full opts into the large one.
loadtest:
	$(GO) test -race -run TestChaosLoad -v ./internal/jobqueue
loadtest-full:
	CACHESIMD_LOADTEST=full $(GO) test -race -run TestChaosLoad -v -timeout 30m ./internal/jobqueue

# trace-e2e boots cachesimd in-process, submits a job, and asserts the
# same job ID appears in /debug/traces (span tree + SLO summary) and in
# the structured log, plus the slowloris read-header-timeout hardening.
trace-e2e:
	$(GO) test -race -run 'TestTraceEndToEnd|TestStalledHeaderConnectionDropped' -v ./cmd/cachesimd

# bench runs the micro-benchmarks briefly — enough to catch a throughput
# cliff, not a full measurement run.
bench:
	$(GO) test . -run '^$$' -bench 'Replay|RunBenchmark|TraceGeneration|UploadSubmit|Decode|CacheProbe|ClusterConsume' -benchtime 1x -benchmem

# bench-json writes the measured benchmark artifacts: the replay loop with
# telemetry off vs on, the grouped four-system replay against one
# system, the grouped sweep against one cache per configuration and a
# cachesimd upload admission (BENCH_telemetry.json), and the decode-once fan-out
# replay vs per-configuration decoding (BENCH_fanout.json).
BENCH_JSON_OUT ?= BENCH_telemetry.json
BENCH_FANOUT_OUT ?= BENCH_fanout.json
bench-json:
	BENCH_JSON=$(BENCH_JSON_OUT) $(GO) test . -run TestWriteBenchTelemetryJSON -v
	BENCH_FANOUT_JSON=$(BENCH_FANOUT_OUT) $(GO) test . -run TestWriteBenchFanoutJSON -v

# bench-gate is the benchmark regression gate: it measures the telemetry
# off/on replay benchmarks fresh and fails if telemetry-on overhead
# exceeds 10%, if the din file-backed replay takes more than 1.6x the
# in-memory replay (paired), if a svc-mixed job's four-system replay
# takes more than 2.3x one system's at GOMAXPROCS 1, if cachesim's
# grouped paper sweep takes more than 0.8x the sweep with a cache per
# configuration at GOMAXPROCS 1, or if allocs/op on the file-backed
# replay, B/op on the four-system replay, or B/op or allocs/op on the
# upload admission regresses against the committed BENCH_telemetry.json
# baseline.
BENCH_GATE_TMP ?= bench_measured.json
bench-gate:
	BENCH_JSON=$(BENCH_GATE_TMP) $(GO) test . -run TestWriteBenchTelemetryJSON -v
	$(GO) run ./cmd/benchgate -baseline BENCH_telemetry.json -measured $(BENCH_GATE_TMP)
	@rm -f $(BENCH_GATE_TMP)
