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
echo "== fanout churn/isolation suite, and a writer spawn that allocates nothing (race-enabled)"
selected run 'TestFanoutChurnStress|TestSlowSinkIsolation|TestFailedWriteReleasesGauges' \
    -race -count=1 ./internal/echo/
selected run 'TestQueueConcurrentChurn|TestQueueFailedWriteReleasesGauges|TestFrame|TestQueueWriterSpawnAllocs' \
    -race -count=1 ./internal/fanout/
echo "== publisher write coalescer contract and buffered-burst overflow (race-enabled)"
selected run 'TestPublishOrderConcurrent|TestCloseFlushesAccepted|TestPublishBlocksOnStalledPeer|TestCoalescerBoundsMemory|TestPublishFailsAfterBrokerCloses|TestCloseLeavesNoGoroutine|TestBufferedBurstDoesNotOverflow' \
    -race -count=1 ./internal/echo/
echo "== wire read and write paths (a batch leaves in one Write per 64 KiB of frames and arrives in one Read per 64 KiB; a body over 64 KiB leaves uncopied; random batches read back in order with their trace frames, however the stream is cut; frames shorter than a full header cross an unbuffered pipe; a failed or short Write is sticky; a connection blocked in a Write holds at most 64 KiB of heap, one waiting in a Read 4 KiB; an end of stream between frames is io.EOF, inside one ErrBadFrame wrapping io.ErrUnexpectedEOF; a body over 64 KiB grows as it arrives, so a forged length costs what the peer sent; race-enabled)"
selected run 'TestWriteEncodedBatch|TestWriteLargeFrameUncopied|TestQuickWriteBatches|TestStickyWriteError|TestStalledWritesBoundMemory|TestReadEncodedRealSizes|TestQuickReadSplits|TestSmallFramePingPong|TestIdleReadsBoundMemory|TestReadErrorContracts|TestForgedLengthCostsWhatArrived|TestLargeFramesReadBack' \
    -race -count=1 ./internal/wire/
echo "== allocation gates (packed Value, list slabs, a plan converting a roster, a Figure 5 run growing each list once, record-lane deliveries decoded through their plans, Figure 5's lowered loop included, or into reused memory for the Ecode VM, splice-lane deliveries, steady-state Publish, encoded wire round trips, heap of a decoded format)"
selected run 'TestValueLayout|TestDecodeSlabAllocs|TestFigure5RunAllocs|TestCallAllocs|TestConvertListAllocs|TestRecordLaneAllocs|TestSpliceLaneAllocs|TestPublishAllocs|TestEncodedRoundTripAllocs|TestDecodedFormatBytes' \
    -count=1 ./internal/pbio/ ./internal/ecode/ ./internal/core/ ./internal/echo/ ./internal/wire/
echo "== reused memory for the Ecode VM's input (a run's output shares no record or list memory with its input; lists given room from the run's own input build the same records, fail on the same step and stay within its step budget; one Morpher from 8 goroutines over good, truncated and bit-flipped rosters keeps every handler record intact; race-enabled)"
selected run 'TestRunOutputSharesNothingWithInput|TestListRoom|TestRecycledInputs' \
    -race -count=10 ./internal/ecode/ ./internal/core/
echo "== one format object per process (pbio interns through weak pointers: concurrent decodes, round trips, default variants kept apart, dead entries released; a broker's publishers and a subscriber's connection, registry cache and Morpher; format frames, connections and registry caches; Register never writes the caller's transforms; race-enabled)"
selected run 'TestIntern|TestUninternKeepsLaterEntry|TestBrokerHoldsOneFormatPerFingerprint|TestSubscriberHoldsOneFormatPerFingerprint|TestParseFormatFrameSharesFrameFormat|TestAdoptFormatSharesHeldFormats|TestWatchKeepsOneFormatPerFingerprint|TestRegisterLeavesXformsAlone' \
    -race -count=1 ./internal/pbio/ ./internal/echo/ ./internal/wire/ ./internal/registry/
echo "== untrusted Ecode source (nesting bound, growth charged to the step budget, folding keeps type errors and agrees with unfolded code), numeric stores as pbio coerces them, Figure 5 equal to hand-written Go, record paths rebound wherever they may change, the lane and lowering oracles over fleetgen lineages and Figure 5's loop shapes, and the lowered loop's edge cases against the VM"
selected run 'TestDeepNestingRejected|TestStepBudgetBoundsGrowth|TestFoldingKeepsTypeErrors|TestQuickFoldEquivalence|TestQuickFigure5MatchesHandWritten|TestPathBindingHazards|TestLanesAgree|TestNumericStoreMatchesRecordLane|TestLoweredPlansMatchVM|TestFieldMapLoop|TestLoweredFigure5EdgeCases' \
    -race -count=1 ./internal/ecode/ ./internal/fleetgen/ ./internal/core/
echo "== one name-wise pairing and one plan IR (Diff, DiffReport, plans and weights agree; unweighted matching allocates nothing; both plan executors equal the name-wise reference and a field map's gather; NewPlan refuses malformed plans and coerces a fanned-out value per target; decoding through a plan refuses what the plain decode refuses)"
selected run 'TestQuickOnePairing|TestMatchingAllocFree|TestQuickPlansMatchByName|TestRecordLaneRejectsWhatDecodeRejects|TestNewPlanRejects|TestPlanDecodeCoercesAndFills|TestPlanEach' -count=1 ./internal/core/ ./internal/pbio/
echo "== one PBIO codec (struct bridge allocations, self-referential types refused, .morphcap as PBIO records; race-enabled)"
selected run 'TestStructBridgeAllocs|TestRegisterErrors|TestCapture' -race -count=1 ./internal/pbio/ ./internal/tap/
echo "== tap ring and capture suite, and a broker's tap labelling and capturing its members (race-enabled)"
selected run 'TestConcurrentCaptureAndSnapshot|TestDisarmedCapturesNothing|TestRingWrapCountsDrops|TestCapture|TestSnapshotOrderAfterWrap|TestKeepNotCounted|TestConcurrentPutAndSnapshot|TestServerTapLabelsMembers' \
    -race -count=1 ./internal/tap/ ./internal/ring/ ./internal/echo/
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
echo "== cluster replication/failover suite, re-announce orderings included (race-enabled)"
selected run 'TestCluster|TestFailover|TestStandby|TestReannounce' -race -count=1 ./internal/registry/
selected run 'TestClusterClient|TestResubscribeArmsWithoutFirstSuccess|TestReregisterOnInstanceChange|TestWatchRingDepth|TestDaemonDeathFailsPendingAndDownsOnce|TestClusterClientPeerHealth|TestReadRepairYieldsToWatchEvent|TestParseHelloInfoVintages' \
    -race -count=1 ./internal/registry/
echo "== formatd cluster smoke (3 real peers, SIGKILL the primary under live load)"
selected run 'TestSIGKILLPrimaryUnderLoad' -race -count=1 ./cmd/formatd/
echo "== fleet chaos soak (seeds 1-3, race-enabled: zero loss, dups, reorders, leaks; recovery under 5 s)"
selected run 'TestFleetSoak' -race -count=1 ./internal/bench/
echo "== paper figures (Table 1 sizes; Figures 8-10 as allocation shapes, race-enabled)"
selected run 'TestShapeTable1|TestShapeFigure8|TestShapeFigure9|TestShapeFigure10' -race -count=1 ./internal/bench/
echo "== XSLT baseline contract (Figure 10's stylesheet transforms; every construct outside the subset is refused)"
selected run 'TestChannelOpenResponseTransformation|TestRemovedConstructsRefused' -race -count=1 ./internal/xslt/
echo "== echodemo debug plane (server process: /metrics golden, readyz, /debug/ index, tapz morphcap)"
selected run 'TestRunServerDebugPlane' -race -count=1 ./cmd/echodemo/
echo "== fuzz smoke (wire frame parser over cut streams, format-frame round trip, payload decoder with planned and reused-memory deliveries, format-blob decoder, spool and capture reader, registry bodies, Ecode compiler, Figure 5's lowered loop against its program; 10s each)"
# Minimizing a new input runs up to 60 s by default and executes nothing new
# meanwhile; on these two targets it took most of a 10 s smoke.
selected fuzz FuzzConnReadFrames -fuzztime 10s -fuzzminimizetime 1s ./internal/wire/
selected fuzz FuzzFormatFrame -fuzztime 10s ./internal/wire/
selected fuzz FuzzDecodePayload -fuzztime 10s -fuzzminimizetime 1s ./internal/pbio/
selected fuzz FuzzDecodeFormat -fuzztime 10s ./internal/pbio/
selected fuzz FuzzSpool -fuzztime 10s ./internal/spool/
selected fuzz FuzzRegistryBodies -fuzztime 10s ./internal/registry/
selected fuzz FuzzCompile -fuzztime 10s ./internal/ecode/
selected fuzz FuzzLoweredLoop -fuzztime 10s -fuzzminimizetime 1s ./internal/core/
echo "== work tree untouched"
[ "$(tree_state)" = "$tree_before" ] \
    || { echo "check.sh changed the work tree:"; git status --porcelain; exit 1; }
echo "ok"
