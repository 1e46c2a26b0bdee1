package obs

import (
	"fmt"
	"time"
)

// Decision is one morph-decision trace entry: everything Algorithm 2
// decided for one incoming format fingerprint on the cold path. Cached
// (hot-path) deliveries do not produce entries — the whole point of the
// decision cache is that nothing decision-shaped happens there.
type Decision struct {
	Seq         uint64    `json:"seq"`
	Time        time.Time `json:"time"`
	Format      string    `json:"format"`         // incoming format name
	Fingerprint string    `json:"fingerprint"`    // %016x of the incoming fingerprint
	Candidates  int       `json:"candidates"`     // |F1|: formats the message can become (incl. itself)
	Registered  int       `json:"registered"`     // |Fr|: same-name reader formats considered
	From        string    `json:"from,omitempty"` // chosen MaxMatch pair
	To          string    `json:"to,omitempty"`
	Diff        float64   `json:"diff"`     // Diff(From, To): incoming fields dropped (their importance, when weighted)
	Mismatch    float64   `json:"mismatch"` // MismatchRatio(From, To): target fields defaulted
	ChainLen    int       `json:"chain_len"`
	CompileNS   int64     `json:"compile_ns"` // total transformation-compile time
	Rejected    bool      `json:"rejected"`
	Reason      string    `json:"reason,omitempty"` // reject/error reason; "" on success
}

// String renders the entry as one log-friendly line.
func (d Decision) String() string {
	if d.Rejected {
		return fmt.Sprintf("decision #%d %s(%s): REJECT (%s) candidates=%d registered=%d",
			d.Seq, d.Format, d.Fingerprint, d.Reason, d.Candidates, d.Registered)
	}
	return fmt.Sprintf("decision #%d %s(%s): %s→%s diff=%g mismatch=%.3f chain=%d compile=%s candidates=%d registered=%d",
		d.Seq, d.Format, d.Fingerprint, d.From, d.To, d.Diff, d.Mismatch,
		d.ChainLen, time.Duration(d.CompileNS), d.Candidates, d.Registered)
}
