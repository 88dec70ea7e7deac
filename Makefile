# Development entry points. The repo is plain `go build`-able; these
# targets just name the common invocations (CI runs the same ones).

GO ?= go

.PHONY: all build vet test test-short test-race allocs onepath bench-smoke loadtest crashtest

all: vet build test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

# test-race mirrors the CI race job: regressions in the concurrent
# ingest pipeline — the store's and tracker's per-device lock stripes,
# the one log's leader/follower group commit — surface here.
test-race:
	$(GO) test -race ./...

# allocs runs the allocation-budget pins: AllocsPerRun counts of every
# step of the report path — identity parse, device encode and uplink
# send, one HTTP exchange, the gateway's split, cut and forward, a warm
# stream exchange at both ends, the shard's ingest core, span prediction,
# frame decode, both faces' JSON door and its layout parse, the log
# append under each fsync policy (TestAllocBudgetWALAppend) — and of the
# federated reads: the rollup, and one read over HTTP shards at both ends
# of every exchange
# (TestAllocBudgetFederatedRead). Each is held to a ceiling or to "the
# same at 8 reports as at 64" (a read: at 256 devices within 64 of 16),
# so nothing is allocated per report, per identity, per event of
# history or per device a read names; with them the two size pins the byte metrics rest on
# (TestFrameBytesPaperTraffic) and TestEncodeManyIdentitiesIsLinear.
# The counts are deterministic on any box, so a regression fails a PR
# here instead of hiding in timing noise. Never under -race: the pins
# skip there, the detector allocates on its own account. What each pin
# was when it landed is CHANGES.md's and PERF.md's to say.
allocs:
	$(GO) test -count=1 -run 'TestAllocBudget|TestPredictSpanAllocatesNothing|TestSteadyState(Decode|Encode)Allocs|TestFrameBytesPaperTraffic|TestEncodeManyIdentitiesIsLinear|FuzzParseBeaconID' \
		./internal/ibeacon/ ./internal/wire/ ./internal/classify/ ./internal/transport/ ./internal/store/ ./internal/bms/ ./internal/fleet/

# onepath keeps the crowd harness (internal/scenario: spec → build →
# drive → verify) the only one: it fails when a fleet-assembly call —
# the gateway constructor, a pool constructor, the HTTP shard client, a
# fleettest shard double — appears in more than one non-test file of the
# directories that used to assemble fleets each their own way.
# The device leg is pinned the same way: internal/transport has one
# device uplink (uplink.go), so in its non-test files the refused upgrade
# that latches a target to JSON is read at one call site and the ring
# digest is stamped on an upload's envelope at one; and one stream client
# (stream.go) for both framed legs, so in the non-test Go of internal/ a
# request envelope is built at one site. And so is the server process: cmd/bmsd
# is one pipeline (open shards → pick the face → serve), so it builds a
# gateway, dials shards, starts an http.Server and takes signals at one
# site each. So is the load generator: cmd/loadgen is one pipeline
# (flags → rig → drive → verify), so it starts a subprocess, SIGKILLs one
# and verifies against the ground truth at one site each. And so is the
# HTTP face: a box and a gateway are served by one route table
# (bms.Routes), so in the non-test Go of internal/ and cmd/ the batch
# upload route and /metrics are registered once, and no handler decodes a
# request body with a json.Decoder of its own (bms.DecodeJSON reads every
# JSON body under the size limit). And so is a shard's state: in
# internal/bms every mutation is a logged record applied by one function
# that replay and snapshot restore run too, so each store, tracker and
# classifier write below it has one site. And so is the gateway's control
# leg: in internal/fleet every many-shard call is one gather round and
# every HTTP shard verb one HTTPShard.call, so a control body is marshalled
# and unmarshalled at one site each, and a goroutine starts only in
# dispatch, gather and migrate. And so is a failure's meaning: every site
# decides by transport.Classify, so in the non-test Go of internal/ and
# cmd/ a shed (IsOverload()) and a status (StatusCode()) are read only in
# the classifier's file. And so is reading JSON without reflection: the
# JSON door's layout parse and the shard rollup's parse share one cursor
# (wire.LayoutReader), so in the non-test Go of internal/ a string is
# checked for valid UTF-8 at one site. And the frozen instrument is
# fenced: a name that
# exists only because benchmark/ compiles against it lives in its
# package's frozen.go, and outside comments no Go file but benchmark/'s,
# that frozen.go and its frozen_test.go names it. And every entry point
# runs under tier-1: a directory outside benchmark/ holding package main
# has a _test.go file beside it, or it goes (the walkthroughs are
# Example_* functions in the root package, checked by go test).
ONEPATH_DIRS = internal/experiments internal/scenario cmd/loadgen
onepath:
	@fail=0; \
	for pat in 'fleet\.New(' 'fleet\.\(New\|Open\)LocalPool(' 'fleet\.NewHTTPShard(' 'fleettest\.\(Slow\|Flaky\)Shard{'; do \
		files=$$(grep -rl --include='*.go' --exclude='*_test.go' -e "$$pat" $(ONEPATH_DIRS)); \
		if [ $$(echo "$$files" | grep -c .) -gt 1 ]; then \
			echo "onepath: $$pat is in more than one non-test file:"; echo "$$files"; fail=1; \
		fi; \
	done; \
	onesite() { \
		dir=$$1; shift; \
		for pat; do \
			sites=$$(grep -rn --include='*.go' --exclude='*_test.go' -e "$$pat" $$dir | grep -v '^[^:]*:[0-9]*:\(func \|[[:space:]]*//\)'); \
			if [ $$(echo "$$sites" | grep -c .) -ne 1 ]; then \
				echo "onepath: $$pat has other than one site in $$dir:"; echo "$$sites"; fail=1; \
			fi; \
		done; \
	}; \
	onesite internal/transport 'refusesStream(' '= v\.digest'; \
	onesite internal 'wire\.AppendStreamRequest(' 'utf8\.Valid('; \
	onesite cmd/bmsd 'fleet\.New(' '&http\.Server{' 'signal\.Notify(' 'fleet\.NewHTTPShard('; \
	onesite cmd/loadgen 'exec\.Command(' 'syscall\.SIGKILL' '\.Verify('; \
	onesite 'internal cmd' '"POST /api/v1/observations:batch"' '"GET /metrics"'; \
	onesite internal/bms 's\.tracker\.ObserveBatch(' 's\.st\.AddObservationBatch(' 's\.tracker\.Install(' \
		's\.st\.InstallModel(' 's\.classifier = ' 's\.st\.AddFingerprint('; \
	onesite internal/fleet 'json\.Marshal(' 'json\.Unmarshal('; \
	gofuncs=$$(find internal/fleet -name '*.go' ! -name '*_test.go' | xargs awk ' \
		/^func /{ f = $$0; sub(/^func (\([^)]*\) )?/, "", f); sub(/[[(].*/, "", f) } \
		/^[[:space:]]*go func/{ print f }' | sort | tr '\n' ' '); \
	if [ "$$gofuncs" != "dispatch gather migrate " ]; then \
		echo "onepath: internal/fleet starts goroutines in [$$gofuncs], want one each in dispatch, gather and migrate"; fail=1; \
	fi; \
	readers=$$(grep -rn --include='*.go' --exclude='*_test.go' -e 'IsOverload(' -e 'StatusCode(' internal cmd | \
		grep -v '^[^:]*:[0-9]*:\(func \|[[:space:]]*//\)' | cut -d: -f1 | sort -u | grep -vx 'internal/transport/failure.go'); \
	if [ -n "$$readers" ]; then \
		echo "onepath: a failure is classified outside internal/transport/failure.go in:"; echo "$$readers"; fail=1; \
	fi; \
	if grep -rn --include='*.go' --exclude='*_test.go' -e 'json\.NewDecoder(r\.Body)' internal cmd; then \
		echo "onepath: a handler decodes a request body with its own json.Decoder; use bms.DecodeJSON"; fail=1; \
	fi; \
	for fence in 'internal/fleet NewLocalPool(' 'internal/fleet SetCodec(' 'internal/fleet ingestAsFrame(' \
		'internal/fleet FrameIngester' 'internal/transport ShardSplitter' 'internal/store OpenWAL(' \
		'internal/store Begin('; do \
		set -- $$fence; \
		sites=$$(grep -rn --include='*.go' -e "$$2" . | grep -v -e '^\./benchmark/' -e "^\./$$1/frozen\(_test\)\?\.go:" | \
			grep -v '^[^:]*:[0-9]*:[[:space:]]*//'); \
		if [ -n "$$sites" ]; then \
			echo "onepath: $$2 is frozen: only benchmark/ and $$1/frozen.go (with its test) may name it:"; echo "$$sites"; fail=1; \
		fi; \
	done; \
	for dir in $$(grep -rl --include='*.go' --exclude='*_test.go' '^package main$$' . | grep -v '^\./benchmark/' | xargs -r -n1 dirname | sort -u); do \
		if ! ls $$dir/*_test.go >/dev/null 2>&1; then \
			echo "onepath: $$dir is an entry point (package main) with no _test.go: test it under go test or delete it"; fail=1; \
		fi; \
	done; \
	exit $$fail

# bench-smoke runs every package microbenchmark once so none of them
# rots. It times nothing worth keeping: the system's performance is
# measured by go run ./benchmark (benchmark/README.md), and the paper's
# figures are pinned by TestExperimentsTable.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# loadtest is the CI smoke of the fleet layer: a matrix of adversarial
# crowds through an in-process fleet.Gateway, each checked against its
# ground-truth oracle (internal/scenario). clean pins the harness;
# -flaky injects shard failures half of which land after the commit;
# storm retransmits every batch 3x above admission capacity (must shed
# with 429s, drop nothing accepted, end byte-identical); skew runs
# devices with clocks hours wrong (re-anchored, set-equivalent); and
# diurnal runs the campus arrive/dwell/depart wave (departures swept by
# TTL to exactly the reference's expired state). Every run exits
# nonzero on oracle divergence or a vacuous drill. The final run
# drives live bmsd subprocesses with no faults and curls each shard's
# /metrics, failing on any malformed exposition line; it proves the
# server-side split's frames and the gateway → shard streams land
# byte-identical state through real processes. It asserts
# from telemetry that every shard took frames over a stream and no stream
# was reset, and that every acknowledged WAL append was covered by
# exactly one completed fsync with no append failing
# (wal_group_commit_frames sums to wal_append_seconds' count), from each
# shard's log that the SIGTERM drain stopped its streams — 0 left open —
# before compacting, and from its data directory that the drain left
# exactly wal.log and one snapshot. The last run repeats it with the
# phone crowd (-source phones: the paper's app pipeline on walking phones,
# each reporting only the beacons it ranged), so reports shaped like a
# real handset's cross real HTTP into real shards and are verified
# byte-identical too.
loadtest:
	$(GO) run ./cmd/loadgen -shards 2 -devices 12 -reports 60 -seed 7
	$(GO) run ./cmd/loadgen -shards 3 -devices 12 -reports 60 -seed 7 -flaky 0.2
	$(GO) run ./cmd/loadgen -scenario storm -shards 2 -devices 12 -reports 60 -seed 7
	$(GO) run ./cmd/loadgen -scenario skew -shards 2 -devices 12 -reports 60 -seed 7
	$(GO) run ./cmd/loadgen -scenario diurnal -shards 2 -devices 12 -reports 60 -seed 7
	$(GO) build -o bin/bmsd ./cmd/bmsd
	$(GO) run ./cmd/loadgen -shards 2 -devices 12 -reports 60 -seed 7 -bmsd bin/bmsd -fsync batch
	$(GO) run ./cmd/loadgen -source phones -shards 2 -devices 12 -reports 60 -seed 7 -bmsd bin/bmsd -fsync batch

# crashtest is the durability pin: two drills over durable bmsd
# subprocesses, each failing unless the fleet's final occupancy, events,
# dwell and rollup are byte-identical to a clean single server fed the
# same streams once — kill -9 of a shard or of a gateway loses nothing
# and lands nothing twice. The shard drill SIGKILLs a shard at trace
# t=40s and t=80s, restarts it over its WAL and rebuilds the gateway; it
# is paced (-rate 400) so both kills land with traffic on either side.
# The gateway drill SIGKILLs the active of an active/standby bmsd pair
# at the same times for the standby to take over through the shards'
# lease, its devices pre-splitting in -wire binary. Both make loadtest's
# shard assertions too (streams, WAL group commit, drain); cmd/loadgen's
# package comment lists each drill's own.
crashtest:
	$(GO) build -o bin/bmsd ./cmd/bmsd
	$(GO) run ./cmd/loadgen -shards 3 -devices 12 -reports 60 -seed 7 -rate 400 \
		-kill 40,80 -restart-gateway -bmsd bin/bmsd -fsync batch
	$(GO) run ./cmd/loadgen -shards 3 -devices 12 -reports 60 -seed 7 \
		-kill-gateway 40,80 -bmsd bin/bmsd -fsync batch -wire binary
