// Package bench is what cmd/morphbench prints: the paper's §5 (Table 1,
// Figures 8, 9 and 10 over the ChannelOpenResponse workload, PBIO vs
// XML/XSLT), two ablations, and the fleet chaos soak.
//
// Timing lives only in those printouts. The package's tests gate the same
// figures on what is deterministic — encoded bytes, and heap allocations
// per operation — and run the full soak as a tier-1 correctness gate.
// Performance of the messaging stack itself is benchmark/'s job.
package bench

import (
	"fmt"

	"repro/internal/echo"
	"repro/internal/pbio"
)

// Figure sizes: the paper's x-axis runs from 100 B to 1 MB of unencoded
// v2.0 message data (Figures 8–10); Table 1 uses the same five decades
// labeled in KB.
var (
	// FigureSizes are the unencoded v2.0 base sizes for Figures 8, 9, 10.
	FigureSizes = []int{100, 1_000, 10_000, 100_000, 1_000_000}

	// FigureLabels are the paper's x-axis tick labels.
	FigureLabels = []string{"100B", "1KB", "10KB", "100KB", "1MB"}

	// Table1Labels are the column headers of Table 1 (KB).
	Table1Labels = []string{".1", "1", "10", "100", "1000"}
)

// memberNativeSize is the approximate unencoded bytes one member entry adds
// to a v2.0 response: an 8-byte string reference plus the contact text,
// a 4-byte ID and two booleans.
func memberNativeSize(info string) int { return 8 + len(info) + 4 + 2 }

// Response builds a ChannelOpenResponse v2.0 record whose unencoded native
// size is as close as possible to target bytes (and never more than one
// member over). Member contact strings follow the ECho convention
// ("tcp:host-NNNN:PORT") so the workload looks like real contact data.
func Response(target int) *pbio.Record {
	// Fixed cost: member_count (4) + member list reference (8).
	const fixed = 4 + 8
	var members []echo.Member
	size := fixed
	for i := 0; size < target; i++ {
		info := fmt.Sprintf("tcp:host-%04d:%d", i%10000, 4000+i%1000)
		size += memberNativeSize(info)
		// Every member is both source and sink, the membership shape behind
		// the paper's Table 1 observation that rolling back to v1.0 triples
		// the message: each contact appears in all three v1.0 lists.
		members = append(members, echo.Member{
			Info:     info,
			ID:       7,
			IsSource: true,
			IsSink:   true,
		})
	}
	return echo.ResponseV2Record(members)
}
