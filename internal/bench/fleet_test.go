package bench

import (
	"encoding/json"
	"fmt"
	"testing"
	"time"
)

// TestFleetSoak runs the full chaos soak at three seeds and requires every
// integrity counter to be zero, the fleet to drain, both kinds of kill to
// recover within 5 s, and the schedule to have killed what it promises: two
// formatd primaries (the second one the successor the first kill promoted)
// and one broker. A failing seed logs its whole result; rerun it with
// morphbench -exp fleet -seed N.
func TestFleetSoak(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			r, err := FleetSoak(seed)
			if err != nil {
				t.Fatal(err)
			}
			var failed []string
			check := func(ok bool, format string, args ...any) {
				if !ok {
					failed = append(failed, fmt.Sprintf(format, args...))
				}
			}
			check(r.LostMessages == 0, "%d lost messages", r.LostMessages)
			check(r.ByteMismatches == 0, "%d byte mismatches", r.ByteMismatches)
			check(r.CheckFailures == 0, "%d check failures", r.CheckFailures)
			check(r.DupDeliveries == 0, "%d duplicate deliveries", r.DupDeliveries)
			check(r.OrderViolations == 0, "%d order violations", r.OrderViolations)
			check(r.LiveFramesAtDrain == 0, "%d frames live after drain", r.LiveFramesAtDrain)
			check(r.FormatdRecoveryNS < 5e9, "formatd recovery %s", time.Duration(r.FormatdRecoveryNS))
			check(r.BrokerRecoveryNS < 5e9, "broker recovery %s", time.Duration(r.BrokerRecoveryNS))
			check(r.FormatdKills == 2, "%d formatd kills, want 2", r.FormatdKills)
			check(r.BrokerKills == 1, "%d broker kills, want 1", r.BrokerKills)
			if len(failed) > 0 {
				doc, _ := json.MarshalIndent(r, "", "  ")
				t.Fatalf("%v\n%s", failed, doc)
			}
			t.Logf("%d published, %d delivered, %d generations, formatd recovery %s, broker recovery %s",
				r.Published, r.Delivered, r.Generations,
				time.Duration(r.FormatdRecoveryNS), time.Duration(r.BrokerRecoveryNS))
		})
	}
}
