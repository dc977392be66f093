GO ?= go

.PHONY: check fmt vet metriclint build test race stress crash serve-test shard-test proto-test repl-test advise-test bench-test fuzz-short probe bench benchjson loc

## check: the full CI gate — formatting, vet, metric-name lint, build, tests under the race detector, concurrency stress, crash recovery, client/server serving, shard routing, wire protocol (hello + golden vectors + short fuzz), replication, adaptive merging, the benchmark module's vet and tests, and the quick probes (read-under-write + cross-shard IND)
check: fmt vet metriclint build race stress crash serve-test shard-test proto-test repl-test advise-test bench-test probe

fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

## metriclint: every registered metric name is unique and follows the naming convention
metriclint:
	$(GO) run ./scripts/metriclint .

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

## stress: the concurrency stress suite — including readers of frozen maps beside a builder editing in place — fresh (uncached) under the race detector
stress:
	$(GO) test -race -count=1 -run 'Stress|Concurrent|Mixed' ./internal/engine/ ./internal/workload/ ./internal/attrset/ ./internal/immap/

## crash: the crash-recovery suite — WAL replay, failpoint injection, the recovery property matrix — fresh under the race detector
crash:
	$(GO) test -race -count=1 -run 'Crash|Failpoint|Recovery|WAL' ./internal/wal/ ./internal/engine/

## serve-test: the service-layer suite — wire protocol (incl. fuzz seeds), admission control, graceful drain, the kill-server-mid-batch crash test, and the cross-backend Session conformance suite — fresh under the race detector
serve-test:
	$(GO) test -race -count=1 -run 'Session|Remote|Serve|Frame|Wire|Protocol|Admission|Deadline|Drain|Kill|Coalesc|Client|Stats|Code|Sentinels' ./internal/server/ ./pkg/relmerge/

## shard-test: the sharding suite — hash golden vectors, cross-shard IND enforcement and stress, durable reopen — fresh under the race detector (the three-backend Session conformance suite, which includes the sharded router, runs under serve-test)
shard-test:
	$(GO) test -race -count=1 -run 'HashKey|Router|CrossShard|Shard|NonKeyIND|ProbeCache' ./internal/shard/

## proto-test: the wire-protocol suite — hello version matrix and legacy-server refusal, hello and binary golden vectors, codec round trips and fail-closed decoding, encode/decode allocation budgets — fresh under the race detector, then a short fuzz of the binary codec and of every decoder facing untrusted bytes (binary request/response, JSON hello)
proto-test:
	$(GO) test -race -count=1 -run 'Negotiation|Golden|Binary|Version|DialsOnce|DecodeRequest|WriteFrame|Allocs' ./internal/server/
	$(GO) test -run xxx -fuzz FuzzBinaryRoundTrip -fuzztime 10s ./internal/server/
	$(GO) test -run xxx -fuzz FuzzReadFrame -fuzztime 10s ./internal/server/

## repl-test: the replication suite — WAL streaming and shipped-commit validation, follower catch-up, failover promotion, stream-fault (gap/reorder/duplicate) refusal, and the follower Session conformance reads — fresh under the race detector
repl-test:
	$(GO) test -race -count=1 -run 'Repl|Follower|Promote|Failover|Ship|Stream|Snapshot|Checkpoint' ./internal/wal/ ./internal/engine/ ./internal/repl/ ./pkg/relmerge/

## advise-test: the adaptive-merging suite — live schema migration (engine + router), the migration crash matrix, co-access measurement, the online decision policy, and the public Advise/ApplyRecommendation API — fresh under the race detector
advise-test:
	$(GO) test -race -count=1 -run 'Migrate|CoAccess|Decide|Apply|Advis|CostModelFromStats' ./internal/engine/ ./internal/shard/ ./internal/advisor/... ./pkg/relmerge/

## fuzz-short: a longer fuzz pass over the wire decoders (frame reader + binary request/response + JSON hello) and the binary round trip
fuzz-short:
	$(GO) test -run xxx -fuzz FuzzBinaryRoundTrip -fuzztime 60s ./internal/server/
	$(GO) test -run xxx -fuzz FuzzReadFrame -fuzztime 60s ./internal/server/

## bench-test: vet and test the benchmark (perfbench/ is a nested module, so ./... above never compiles it)
bench-test:
	cd perfbench && $(GO) vet . && $(GO) test .

## probe: the quick gates — the MVCC read path stays lock-free beside a saturating writer, and cross-shard routing exercises the IND probe path and rejects dangling keys
probe:
	$(GO) run ./cmd/benchreport -probe

bench:
	$(GO) test -bench . -benchmem -run xxx ./internal/attrset/ ./internal/fd/ ./internal/engine/ ./internal/immap/

## benchjson: regenerate the machine-readable perf report committed as BENCH_PR10.json
benchjson:
	$(GO) run ./cmd/benchreport -json BENCH_PR10.json

## loc: count the non-test Go lines outside perfbench/ and .bench_build/ — the size figure ROADMAP tracks from change to change (informational, not a gate)
loc:
	@find . -name '*.go' ! -name '*_test.go' -not -path './perfbench/*' -not -path './.bench_build/*' -not -path './.git/*' -print0 | xargs -0 cat | wc -l
