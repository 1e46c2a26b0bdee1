#!/bin/sh
# Repo hygiene gate: vet, build, and race-enabled tests for every package.
# Referenced from README.md ("Observability" / "Testing"); CI and pre-commit
# both run exactly this.
set -eu
cd "$(dirname "$0")/.."

tmpdir=$(mktemp -d)
# The gate must not touch the work tree: whatever state it starts from
# (clean in CI, staged edits in a pre-commit run) is the state it leaves.
# The state is the porcelain listing plus the content behind every line of
# it: unstaged and staged diffs, and a checksum of each untracked file.
tree_state() {
    { git status --porcelain; git diff; git diff --cached
      git ls-files -o --exclude-standard -z | xargs -0 -r cksum; } | cksum
}
tree_before=$(tree_state)
# `go test -run <pattern>` exits 0 when the pattern matches nothing, so a
# suite below would silently stop gating the moment a test it names is renamed.
# Every selected run goes through here instead: selected <run|bench|fuzz>
# <pattern> <go test flags and packages...> fails unless each |-alternative of
# the pattern names at least one test (or benchmark, or fuzz target) in the
# listed packages, the run itself passes, and — for test runs — no package
# reported "no tests to run". Both output streams append to one file, so the
# log keeps their order.
selected() {
    kind=$1 pattern=$2
    shift 2
    listed=$(go test -list "$pattern" "$@")
    for alt in $(printf '%s' "$pattern" | tr '|' ' '); do
        printf '%s\n' "$listed" | grep -Eq -- "$alt" \
            || { echo "check.sh: '$alt' matches nothing in: go test $*"; exit 1; }
    done
    case $kind in
    run) set -- -run "$pattern" "$@" ;;
    *) set -- -run '^$' "-$kind" "$pattern" "$@" ;;
    esac
    : >"$tmpdir/selected.log"
    go test "$@" >>"$tmpdir/selected.log" 2>>"$tmpdir/selected.log" \
        || { cat "$tmpdir/selected.log"; exit 1; }
    out=$(cat "$tmpdir/selected.log")
    printf '%s\n' "$out"
    if [ "$kind" = run ]; then
        case $out in *"no tests to run"*)
            echo "check.sh: a package ran no tests: go test $*"; exit 1 ;;
        esac
    fi
}
trap 'rm -rf "$tmpdir"' EXIT

echo "== go vet ./..."
go vet ./...
echo "== go build ./..."
go build ./...
echo "== go test -race ./..."
go test -race ./...
echo "== bench smoke (splice/fanout fast paths, lowered transforms, Figure 5 compiled and hand-written)"
selected bench 'Splice|Fanout|Lowered|Figure5' -benchtime 100x ./...
echo "== flake gate (2 procs x 20 runs: handshake, publish coalescing, tracez, trace-ring, daemon-signal, failover, registry-session, soak and debug-plane races)"
GOMAXPROCS=2 go test -count=20 ./internal/echo/ ./internal/trace/ ./cmd/formatd/ ./internal/registry/ \
    ./internal/bench/ ./cmd/echodemo/
echo "== benchmark harness still builds against the library (vet + unit tests, no sockets)"
(cd benchmark; go vet ./...; go test ./...)
echo "== fanout churn/isolation suite (race-enabled)"
selected run 'TestFanoutChurnStress|TestSlowSinkIsolation|TestFailedWriteReleasesGauges' \
    -race -count=1 ./internal/echo/
selected run 'TestQueueConcurrentChurn|TestQueueFailedWriteReleasesGauges|TestFrame' \
    -race -count=1 ./internal/fanout/
echo "== publisher write coalescer contract and buffered-burst overflow (race-enabled)"
selected run 'TestPublishOrderConcurrent|TestCloseFlushesAccepted|TestPublishBlocksOnStalledPeer|TestCoalescerBoundsMemory|TestPublishFailsAfterBrokerCloses|TestCloseLeavesNoGoroutine|TestBufferedBurstDoesNotOverflow' \
    -race -count=1 ./internal/echo/
echo "== allocation gates (packed Value, list slabs, record-lane deliveries decoded through their plans, steady-state Publish, heap of a decoded format)"
selected run 'TestValueLayout|TestDecodeSlabAllocs|TestFigure5RunAllocs|TestCallAllocs|TestConvertListAllocs|TestRecordLaneAllocs|TestPublishAllocs|TestDecodedFormatBytes' \
    -count=1 ./internal/pbio/ ./internal/ecode/ ./internal/core/ ./internal/echo/
echo "== one decoded copy of each format per owner (format frame, connection, registry cache; Register never writes the caller's transforms; race-enabled)"
selected run 'TestParseFormatFrameSharesFrameFormat|TestAdoptFormatSharesHeldFormats|TestWatchKeepsOneFormatPerFingerprint|TestRegisterLeavesXformsAlone' \
    -race -count=1 ./internal/wire/ ./internal/registry/
echo "== untrusted Ecode source (nesting bound, growth charged to the step budget, folding keeps type errors and agrees with unfolded code), numeric stores as pbio coerces them, Figure 5 equal to hand-written Go, record paths rebound wherever they may change, and the lane and lowering oracles over fleetgen lineages"
selected run 'TestDeepNestingRejected|TestStepBudgetBoundsGrowth|TestFoldingKeepsTypeErrors|TestQuickFoldEquivalence|TestQuickFigure5MatchesHandWritten|TestPathBindingHazards|TestLanesAgree|TestNumericStoreMatchesRecordLane|TestLoweredPlansMatchVM' \
    -race -count=1 ./internal/ecode/ ./internal/fleetgen/
echo "== one name-wise pairing (Diff, DiffReport, plans and weights agree; unweighted matching allocates nothing; decoding through a plan equals converting the plain decode and refuses what it refuses)"
selected run 'TestQuickOnePairing|TestMatchingAllocFree|TestQuickDecodeThroughPlanMatchesRecordLane|TestRecordLaneRejectsWhatDecodeRejects' -count=1 ./internal/core/
echo "== one PBIO codec (struct bridge allocations, self-referential types refused, .morphcap as PBIO records; race-enabled)"
selected run 'TestStructBridgeAllocs|TestRegisterErrors|TestCapture' -race -count=1 ./internal/pbio/ ./internal/tap/
echo "== tap ring and capture suite (race-enabled)"
selected run 'TestConcurrentCaptureAndSnapshot|TestDisarmedCapturesNothing|TestRingWrapCountsDrops|TestCapture|TestSnapshotOrderAfterWrap|TestKeepNotCounted|TestConcurrentPutAndSnapshot' \
    -race -count=1 ./internal/tap/ ./internal/ring/
echo "== morphing across time (spool replay = live receive loop over fleetgen lineages; rejects skipped and counted; race-enabled)"
selected run 'TestMorphingAcrossTime|TestReplaySkipsRejects' -race -count=1 ./internal/spool/
echo "== morphtap round-trip (capture -> decode -> replay, byte-exact)"
selected run 'TestMorphtap' -race -count=1 ./cmd/morphtap/
echo "== registry watch/reconnect suite (race-enabled)"
selected run 'TestWatch|TestRegisterPurgesNegativeCache|TestConcurrentResolveRegisterWatch' \
    -race -count=1 ./internal/registry/
echo "== registry-only interop and formatd death (race-enabled)"
selected run 'TestRegistryOnlyInterop|TestRegistryDownFallback|TestFormatdDeathMidRun' \
    -race -count=1 ./internal/echo/
echo "== formatd debug plane (snapshot restart, registryz JSON+text, /metrics, /readyz spool probe, tapz, pprof)"
selected run 'TestDaemonSmoke|TestRegistryzEndToEnd' -race -count=1 ./cmd/formatd/
echo "== cluster replication/failover suite (race-enabled)"
selected run 'TestCluster|TestFailover|TestStandby' -race -count=1 ./internal/registry/
selected run 'TestClusterClient|TestResubscribeArmsWithoutFirstSuccess|TestReregisterOnInstanceChange|TestWatchRingDepth|TestDaemonDeathFailsPendingAndDownsOnce|TestClusterClientPeerHealth|TestReadRepairYieldsToWatchEvent|TestParseHelloInfoVintages' \
    -race -count=1 ./internal/registry/
echo "== formatd cluster smoke (3 real peers, SIGKILL the primary under live load)"
selected run 'TestSIGKILLPrimaryUnderLoad' -race -count=1 ./cmd/formatd/
echo "== fleet chaos soak (seeds 1-3, race-enabled: zero loss, dups, reorders, leaks; recovery under 5 s)"
selected run 'TestFleetSoak' -race -count=1 ./internal/bench/
echo "== echodemo debug plane (server process: /metrics golden, readyz, /debug/ index, tapz morphcap)"
selected run 'TestRunServerDebugPlane' -race -count=1 ./cmd/echodemo/
echo "== fuzz smoke (wire frame parser, format-frame round trip, payload and format-blob decoders, spool and capture reader, registry bodies, Ecode compiler; 10s each)"
selected fuzz FuzzConnReadFrames -fuzztime 10s ./internal/wire/
selected fuzz FuzzFormatFrame -fuzztime 10s ./internal/wire/
selected fuzz FuzzDecodePayload -fuzztime 10s ./internal/pbio/
selected fuzz FuzzDecodeFormat -fuzztime 10s ./internal/pbio/
selected fuzz FuzzSpool -fuzztime 10s ./internal/spool/
selected fuzz FuzzRegistryBodies -fuzztime 10s ./internal/registry/
selected fuzz FuzzCompile -fuzztime 10s ./internal/ecode/
echo "== work tree untouched"
[ "$(tree_state)" = "$tree_before" ] \
    || { echo "check.sh changed the work tree:"; git status --porcelain; exit 1; }
echo "ok"
