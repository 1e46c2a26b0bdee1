#!/bin/sh
# Repo hygiene gate: vet, build, and race-enabled tests for every package.
# Referenced from README.md ("Observability" / "Testing"); CI and pre-commit
# both run exactly this.
set -eu
cd "$(dirname "$0")/.."

tmpdir=$(mktemp -d)
formatd_pid=; echodemo_pid=
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
# reported "no tests to run".
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
    out=$(go test "$@" 2>&1) || { printf '%s\n' "$out"; exit 1; }
    printf '%s\n' "$out"
    if [ "$kind" = run ]; then
        case $out in *"no tests to run"*)
            echo "check.sh: a package ran no tests: go test $*"; exit 1 ;;
        esac
    fi
}
trap 'kill "$formatd_pid" "$echodemo_pid" 2>/dev/null || true; rm -rf "$tmpdir"' EXIT

echo "== go vet ./..."
go vet ./...
echo "== go build ./..."
go build ./...
echo "== go test -race ./..."
go test -race ./...
echo "== bench smoke (splice/fanout fast paths)"
selected bench 'Splice|Fanout' -benchtime 100x ./...
echo "== flake gate (2 procs x 20 runs: handshake, trace-ring, daemon-signal, failover and registry-session races)"
GOMAXPROCS=2 go test -count=20 ./internal/echo/ ./internal/trace/ ./cmd/formatd/ ./internal/registry/
echo "== benchmark harness still builds against the library (vet + unit tests, no sockets)"
(cd benchmark && go vet ./... && go test ./...)
echo "== fanout churn/isolation suite (race-enabled)"
selected run 'TestFanoutChurnStress|TestSlowSinkIsolation|TestFailedWriteReleasesGauges' \
    -race -count=1 ./internal/echo/
selected run 'TestQueueConcurrentChurn|TestQueueFailedWriteReleasesGauges|TestFrame' \
    -race -count=1 ./internal/fanout/
echo "== record lane allocation gates (packed Value, list slabs)"
selected run 'TestValueLayout|TestDecodeSlabAllocs|TestFigure5RunAllocs|TestConvertListAllocs' \
    -count=1 ./internal/pbio/ ./internal/ecode/ ./internal/core/
echo "== tap ring & capture suite (race-enabled)"
selected run 'TestConcurrentCaptureAndSnapshot|TestDisarmedCapturesNothing|TestRingWrapCountsDrops|TestCapture|TestSnapshotOrderAfterWrap|TestKeepNotCounted|TestConcurrentPutAndSnapshot' \
    -race -count=1 ./internal/tap/ ./internal/ring/
echo "== morphtap round-trip (capture -> decode -> replay, byte-exact)"
selected run 'TestMorphtap' -race -count=1 ./cmd/morphtap/
echo "== registry watch/reconnect suite (race-enabled)"
selected run 'TestWatch|TestRegisterPurgesNegativeCache|TestConcurrentResolveRegisterWatch' \
    -race -count=1 ./internal/registry/
echo "== formatd smoke (random ports, e2e interop, registryz JSON)"
go build -o "$tmpdir/formatd" ./cmd/formatd
"$tmpdir/formatd" -addr 127.0.0.1:0 -debug 127.0.0.1:0 \
    -snapshot "$tmpdir/table.spool" >"$tmpdir/formatd.log" 2>&1 &
formatd_pid=$!
for _ in $(seq 1 50); do
    grep -q "debug endpoints on" "$tmpdir/formatd.log" && break
    sleep 0.1
done
debug_url=$(sed -n 's/.*debug endpoints on \(http:[^ ]*\).*/\1/p' "$tmpdir/formatd.log")
[ -n "$debug_url" ] || { echo "formatd never became ready:"; cat "$tmpdir/formatd.log"; exit 1; }
selected run 'TestRegistryOnlyInterop|TestRegistryDownFallback|TestFormatdDeathMidRun' \
    -count=1 ./internal/echo/
curl -sf "$debug_url" | jq -e '.count >= 0 and .watch_seq >= 0 and (.watchers | type == "array")' >/dev/null \
    || { echo "registryz did not serve valid JSON (count/watch_seq/watchers)"; exit 1; }
curl -sf -H 'Accept: text/plain' "$debug_url" | grep -q '^# formatd table:' \
    || { echo "registryz ignored Accept: text/plain"; exit 1; }
echo "== formatd telemetry plane (/metrics, /healthz, /readyz, /debug/pprof/)"
debug_base=${debug_url%/debug/*}
curl -sf "$debug_base/metrics" | grep -q '^# TYPE morph_formatd_entries gauge' \
    || { echo "formatd /metrics missing morph_formatd_entries"; exit 1; }
curl -sf "$debug_base/healthz" | grep -q '"ok"' \
    || { echo "formatd /healthz not ok"; exit 1; }
curl -sf "$debug_base/readyz" | jq -e '.ready == true and ([.probes[].name] | index("listener") != null and index("spool") != null)' >/dev/null \
    || { echo "formatd /readyz not ready with listener+spool probes"; exit 1; }
curl -sf "$debug_base/debug/tapz" | jq -e '.name == "formatd" and (.conns | type == "array")' >/dev/null \
    || { echo "formatd /debug/tapz did not serve a tap snapshot"; exit 1; }
curl -sf "$debug_base/debug/pprof/" | grep -q 'goroutine' \
    || { echo "formatd /debug/pprof/ not served"; exit 1; }
kill "$formatd_pid"
formatd_pid=
echo "== cluster replication/failover suite (race-enabled)"
selected run 'TestCluster|TestFailover|TestStandby' -race -count=1 ./internal/registry/
selected run 'TestClusterClient|TestResubscribeArmsWithoutFirstSuccess|TestReregisterOnInstanceChange|TestWatchRingDepth|TestDaemonDeathFailsPendingAndDownsOnce|TestClusterClientPeerHealth|TestReadRepairYieldsToWatchEvent|TestParseHelloInfoVintages' \
    -race -count=1 ./internal/registry/
echo "== formatd cluster smoke (3 real peers, SIGKILL the primary under live load)"
selected run 'TestSIGKILLPrimaryUnderLoad' -race -count=1 ./cmd/formatd/
echo "== fleet chaos soak smoke (quick, race-enabled, seeded)"
go run -race ./cmd/morphbench -exp fleet -quick -seed 1 -out "$tmpdir/fleet_quick.json"
jq -e '.fleet | .lost_messages == 0 and .byte_mismatches == 0 and .check_failures == 0' "$tmpdir/fleet_quick.json" >/dev/null \
    || { echo "fleet smoke: message loss or corruption under chaos"; cat "$tmpdir/fleet_quick.json"; exit 1; }
jq -e '.fleet.live_frames_at_drain == 0' "$tmpdir/fleet_quick.json" >/dev/null \
    || { echo "fleet smoke: frames still live after drain (refcount leak)"; exit 1; }
jq -e '.fleet | .formatd_recovery_ns < 5000000000 and .broker_recovery_ns < 5000000000' "$tmpdir/fleet_quick.json" >/dev/null \
    || { echo "fleet smoke: kill recovery above the 5s ceiling"; cat "$tmpdir/fleet_quick.json"; exit 1; }
echo "== echo telemetry plane (live /metrics golden, healthz/readyz)"
go build -o "$tmpdir/echodemo" ./cmd/echodemo
"$tmpdir/echodemo" -role server -addr 127.0.0.1:0 -debug 127.0.0.1:0 \
    >"$tmpdir/echodemo.log" 2>&1 &
echodemo_pid=$!
for _ in $(seq 1 50); do
    grep -q "debug endpoints on" "$tmpdir/echodemo.log" && break
    sleep 0.1
done
echo_debug=$(sed -n 's/.*debug endpoints on \(http:[^ ]*\)\/debug\/.*/\1/p' "$tmpdir/echodemo.log")
[ -n "$echo_debug" ] || { echo "echodemo never served debug endpoints:"; cat "$tmpdir/echodemo.log"; exit 1; }
echo_addr=$(sed -n 's/.*listening on \([0-9.:]*\).*/\1/p' "$tmpdir/echodemo.log")
curl -sf "$echo_debug/debug/tapz?arm=on" >/dev/null \
    || { echo "echo /debug/tapz?arm=on failed"; exit 1; }
"$tmpdir/echodemo" -role publish -addr "$echo_addr" -n 2 >/dev/null 2>&1
metrics=$(curl -sf "$echo_debug/metrics")
for series in \
    '^# TYPE morph_echo_delivered_total counter' \
    '^# TYPE morph_echo_fanout_ns histogram' \
    '^# TYPE morph_echo_members gauge' \
    '^morph_echo_channel_delivered_total{channel="quotes"}' \
    '^# TYPE morph_wire_data_frames_recv_total counter'; do
    echo "$metrics" | grep -q "$series" \
        || { echo "echo /metrics missing golden series: $series"; exit 1; }
done
curl -sf "$echo_debug/healthz" | grep -q '"ok"' || { echo "echo /healthz not ok"; exit 1; }
curl -sf "$echo_debug/readyz" | jq -e '.ready == true and ([.probes[].name] | index("listener") != null)' >/dev/null \
    || { echo "echo /readyz not ready with listener probe"; exit 1; }
curl -sf "$echo_debug/debug/" | grep -q '/metrics' || { echo "echo /debug/ index missing /metrics"; exit 1; }
curl -sf "$echo_debug/debug/" | grep -q '/debug/tapz' || { echo "echo /debug/ index missing /debug/tapz"; exit 1; }
curl -sf "$echo_debug/metrics" | grep -q '^# TYPE morph_go_goroutines gauge' \
    || { echo "echo /metrics missing morph_go_goroutines runtime series"; exit 1; }
curl -sf "$echo_debug/readyz" | jq -e '[.probes[].name] | index("fanout") != null' >/dev/null \
    || { echo "echo /readyz missing fanout probe"; exit 1; }
echo "== morphcap live round trip (tapz download -> morphtap decode & replay)"
curl -sf "$echo_debug/debug/tapz?format=morphcap" -o "$tmpdir/echo.morphcap"
[ -s "$tmpdir/echo.morphcap" ] || { echo "tapz morphcap download was empty"; exit 1; }
go build -o "$tmpdir/morphtap" ./cmd/morphtap
"$tmpdir/morphtap" "$tmpdir/echo.morphcap" | grep -q 'data' \
    || { echo "morphtap decoded no data frames from the live capture"; exit 1; }
"$tmpdir/morphtap" -replay -out "$tmpdir/replay.bin" "$tmpdir/echo.morphcap" >/dev/null \
    || { echo "morphtap -replay failed on the live capture"; exit 1; }
[ -s "$tmpdir/replay.bin" ] || { echo "morphtap -replay delivered nothing"; exit 1; }
kill "$echodemo_pid"
echodemo_pid=
echo "== fuzz smoke (wire frame parser and payload decoder, 10s each)"
selected fuzz FuzzConnReadFrames -fuzztime 10s ./internal/wire/
selected fuzz FuzzDecodePayload -fuzztime 10s ./internal/pbio/
echo "== work tree untouched"
[ "$(tree_state)" = "$tree_before" ] \
    || { echo "check.sh changed the work tree:"; git status --porcelain; exit 1; }
echo "ok"
