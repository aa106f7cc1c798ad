# Tier-1 gate: every change must pass `make check` — build, vet, and the
# full test suite under the race detector (the parallel fan-out scheduler
# runs on every query, so -race is part of the gate, not an extra).
.PHONY: check ci fmtcheck decodecheck lockcheck lint build vet test race racewal qossmoke procsmoke bench benchsmoke benchall fuzzsmoke chaossmoke loc

check: build vet race

# ci mirrors .github/workflows/ci.yml exactly: formatting, the one-reader
# decode gate, the one-lock-step gate, staticcheck, the tier-1 check gate, the focused WAL/replication race gate, the
# multi-tenant QoS isolation gate, the whole test suite at one and two
# cores and the storage, exec, cluster, WAL, QoS, SQL, index and
# workload race suites at one,
# the seeded chaos soak, a smoke pass of the four benchmark workloads,
# and a short fuzz pass of the SQL front-end, the WAL page codec, the
# exec filter tree and aggregation kernels, the unique-key range and
# secondary-key derivation, the write buffer's secondary index and its
# columnar image, the table writers' histories, the segment index build, every decoder of blob and socket bytes and the
# TCP transport's frame reader. Run it locally before pushing.
ci: fmtcheck decodecheck lockcheck lint check racewal qossmoke procsmoke chaossmoke benchsmoke fuzzsmoke

# fmtcheck fails (and lists the offenders) if any tracked Go file is not
# gofmt-clean; it never rewrites files.
fmtcheck:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# decodecheck is the one-reader gate: bytes from blob or a socket decode
# through codec.Reader (internal/codec/reader.go), so no other non-test Go
# under internal/ reads a varint or a fixed-width integer out of a byte
# slice. The allowed exceptions: the fixed-size frame headers (wal's page
# frame, the TCP transport's readFrame and RecvAck), which check their
# length once and read at fixed offsets; the inverted index's reads of the
# engine's own EncodeKey output; and the LZ compressor's 4-byte loads of
# the bytes it compresses.
DECODE_RAW = binary\.(Uvarint|Varint|(Little|Big)Endian\.Uint)
DECODE_ALLOWED = ^internal/codec/reader\.go:|^(internal/wal/wire\.go|internal/cluster/transport_tcp\.go|internal/index/inverted\.go):[0-9]+:.*BigEndian\.Uint|^internal/codec/lz\.go:[0-9]+:.*Uint32\(src\[
decodecheck:
	@out="$$(grep -rnE '$(DECODE_RAW)' --include='*.go' --exclude='*_test.go' internal | grep -vE '$(DECODE_ALLOWED)')"; \
	if [ -n "$$out" ]; then echo "decode outside codec.Reader:"; echo "$$out"; exit 1; fi

# lockcheck is the one-lock-step gate: every row lock a writer waits on is
# taken in core's lockTargets (internal/core/mutate.go), which locks a
# statement's rows in sorted key order before it writes any, so no two
# writers can deadlock. No other non-test Go under internal/ calls
# LockAndGet.
LOCK_ALLOWED = ^internal/rowstore/store\.go:[0-9]+:func \(t \*Txn\) LockAndGet\(|^internal/core/mutate\.go:[0-9]+:.*cur, ok, err := tx\.LockAndGet\(tgs\[i\]\.key\)
lockcheck:
	@out="$$(grep -rn 'LockAndGet(' --include='*.go' --exclude='*_test.go' internal | grep -vE '$(LOCK_ALLOWED)')"; \
	if [ -n "$$out" ]; then echo "row lock outside core's lockTargets:"; echo "$$out"; exit 1; fi

# lint runs staticcheck at a pinned version so findings are reproducible.
# Resolution order: a staticcheck already on PATH, a previously installed
# .tools/staticcheck, else a fresh pinned install into .tools/. With no
# tool and no network (air-gapped dev box) it skips with a notice rather
# than failing — CI always has the network, so the gate is real there.
STATICCHECK_VERSION = 2025.1.1
lint:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	elif [ -x .tools/staticcheck ]; then \
		.tools/staticcheck ./...; \
	elif GOBIN=$(CURDIR)/.tools go install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION) 2>/dev/null; then \
		.tools/staticcheck ./...; \
	else \
		echo "lint: staticcheck $(STATICCHECK_VERSION) unavailable and not installable (offline?); skipping"; \
	fi

# racewal is the focused replication-pipeline gate: the WAL page/group
# commit machinery and its cluster consumers under the race detector.
racewal:
	go test -race ./internal/wal/... ./internal/cluster/...

# qossmoke is the multi-tenant isolation gate: an adversarial tenant
# floods the governed worker pool while a well-behaved tenant's tail
# latency, typed sheds and token accounting are asserted — under the
# race detector, including the attach/detach churn storm.
qossmoke:
	go test -race -run 'TestQoS' -count=1 -timeout 300s .

# procsmoke runs the whole test suite at GOMAXPROCS 1 and 2, and every
# engine suite under the race detector at GOMAXPROCS 1 — the top-level
# package and the types, codec, colstore, bitmap, blob, rowstore, core,
# exec, cluster, wal, qos, sql, index and workload suites:
# interleavings a many-core machine rarely produces (the cache's
# single-flight decode, the governor's wake-ups, background maintenance
# beside a delete, Compact beside secondary-index readers and held views,
# a link's sender beside its acker, a page sealing beside a subscriber,
# the plan cache under concurrent sessions, lock waits between TPC-C
# workers) show up at low core counts, and tier-1 must be green on any of
# them.
procsmoke:
	GOMAXPROCS=1 go test ./... -count=1
	GOMAXPROCS=2 go test ./... -count=1
	GOMAXPROCS=1 go test -race -count=1 . ./internal/types ./internal/codec ./internal/colstore ./internal/bitmap ./internal/blob ./internal/rowstore ./internal/core ./internal/exec ./internal/cluster ./internal/wal ./internal/qos ./internal/sql ./internal/index ./internal/workload/...

build:
	go build ./...

vet:
	go vet ./...

test:
	go test ./...

race:
	go test -race ./...

# bench runs the repository's benchmark (bench/, BENCHMARK.json) at full
# scale: one run per workload, each ending in one JSON line on stdout.
BENCH_WORKLOADS = tpcc tpch chbench sqlmix
bench:
	@for w in $(BENCH_WORKLOADS); do \
		sh bench/run.sh -workload $$w || exit 1; \
	done

# chaossmoke is the seeded chaos soak: every fault class against the
# replication and workspace links under the race detector, through
# failover too (a promoted master re-links its replicas and workspaces).
# Seeded RNG keeps the fault schedule reproducible across runs.
chaossmoke:
	go test -race -run 'Chaos' -count=1 ./internal/cluster

# benchsmoke runs the same four workloads at -scale smoke (a second or
# two each) — the CI guard that the benchmark still builds, runs and
# reports correct=true. Each run's JSON line lands in .benchsmoke/
# (gitignored, uploaded as CI artifacts); a failed run exits non-zero.
benchsmoke:
	@mkdir -p .benchsmoke
	@for w in $(BENCH_WORKLOADS); do \
		sh bench/run.sh -workload $$w -scale smoke > .benchsmoke/$$w.json || exit 1; \
	done

# fuzzsmoke runs the fuzz targets for a few seconds each: FuzzParse
# must never panic, FuzzNormalize must stay idempotent,
# FuzzFilterTree must find no filter tree on
# which a segment strategy disagrees with row-at-a-time EvalRow,
# FuzzAggregate must find no grouping and aggregate specs on which a fused
# or general aggregation differs from the row-at-a-time fold (float bits
# included),
# FuzzKeyRange must find no key schema, pins and rows on which seeking the
# derived unique-key range or secondary key (or routing to the derived
# partition) loses a row that walking every row keeps,
# FuzzBufferSecondary must find no write history on which the write
# buffer's secondary seek returns other rows than a walk,
# FuzzBufferImage must find no write history and reader timestamps at
# which the write buffer's columnar image, its mask and its delta return
# other rows than a walk, FuzzWriteHistory must find no history of the
# five table writers, flushes and merges after which a unique-key or a
# hidden-row-id table differs from its map model or from a shadow replayed
# from its log, and FuzzSegmentIndex must find no column on which the sorted-array segment
# index disagrees with the map-based oracle build. Every decoder of blob
# and socket bytes — the WAL page frame (FuzzDecodePage), log chunks
# (FuzzDecodeRecords), table log records (FuzzDecodeMutation), snapshot
# bundles (FuzzDecodeSnapshotBundle) and table states (FuzzRestoreState),
# segments (colstore FuzzDecode), bitmaps (bitmap FuzzDecode), rows
# (FuzzDecodeRow) and columns (FuzzDecodeIntColumn, FuzzDecodeStringColumn)
# — must reject hostile bytes without panicking or allocating beyond
# their size, and serve and re-encode stably what it accepts, and the TCP
# transport's frame reader (FuzzReadFrame) must allocate no more than the
# bytes that arrived warrant, whatever a frame header claims (DESIGN.md
# §17). Long campaigns are manual; this is the CI regression guard.
fuzzsmoke:
	go test ./internal/sql -run '^$$' -fuzz '^FuzzParse$$' -fuzztime 10s
	go test ./internal/sql -run '^$$' -fuzz '^FuzzNormalize$$' -fuzztime 10s
	go test ./internal/wal -run '^$$' -fuzz '^FuzzDecodePage$$' -fuzztime 10s
	go test ./internal/exec -run '^$$' -fuzz '^FuzzFilterTree$$' -fuzztime 10s
	go test ./internal/exec -run '^$$' -fuzz '^FuzzAggregate$$' -fuzztime 10s
	go test ./internal/types -run '^$$' -fuzz '^FuzzKeyRange$$' -fuzztime 10s
	go test ./internal/rowstore -run '^$$' -fuzz '^FuzzBufferSecondary$$' -fuzztime 10s
	go test ./internal/core -run '^$$' -fuzz '^FuzzBufferImage$$' -fuzztime 10s
	go test ./internal/core -run '^$$' -fuzz '^FuzzWriteHistory$$' -fuzztime 10s
	go test ./internal/core -run '^$$' -fuzz '^FuzzDecodeMutation$$' -fuzztime 10s
	go test ./internal/cluster -run '^$$' -fuzz '^FuzzDecodeSnapshotBundle$$' -fuzztime 10s
	go test ./internal/index -run '^$$' -fuzz '^FuzzSegmentIndex$$' -fuzztime 10s
	go test ./internal/codec -run '^$$' -fuzz '^FuzzDecodeIntColumn$$' -fuzztime 10s
	go test ./internal/codec -run '^$$' -fuzz '^FuzzDecodeStringColumn$$' -fuzztime 10s
	go test ./internal/colstore -run '^$$' -fuzz '^FuzzDecode$$' -fuzztime 10s
	go test ./internal/bitmap -run '^$$' -fuzz '^FuzzDecode$$' -fuzztime 10s
	go test ./internal/wal -run '^$$' -fuzz '^FuzzDecodeRecords$$' -fuzztime 10s
	go test ./internal/types -run '^$$' -fuzz '^FuzzDecodeRow$$' -fuzztime 10s
	go test ./internal/core -run '^$$' -fuzz '^FuzzRestoreState$$' -fuzztime 10s
	go test ./internal/cluster -run '^$$' -fuzz '^FuzzReadFrame$$' -fuzztime 10s

# loc prints the non-test Go lines of each package directory and of the
# whole tree, the size a simplification is measured by. Hidden
# directories (.bench_build/, .tools/, .benchsmoke/) hold build output,
# not source, and are skipped.
loc:
	@find . -path './.*' -prune -o -name '*.go' ! -name '*_test.go' -exec wc -l {} + | \
	awk '$$2 != "total" { d = $$2; sub(/\/[^\/]*$$/, "", d); n[d] += $$1; t += $$1 } \
	END { for (d in n) printf "%7d %s\n", n[d], d; printf "%7d total\n", t }' | sort -k2

# benchall runs the full Go benchmark suite (paper tables + ablations).
benchall:
	go test -bench=. -benchmem
