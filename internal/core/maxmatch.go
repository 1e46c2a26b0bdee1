package core

import "repro/internal/pbio"

// Thresholds bound how much mismatch MaxMatch will tolerate, the paper's
// DIFF_THRESHOLD and MISMATCH_THRESHOLD. They "add another dimension of
// flexibility by allowing control of the amount of mismatch that will be
// allowed in a particular system"; setting Diff to zero admits only perfect
// matches.
type Thresholds struct {
	// Diff is the maximum allowed Diff(f1, f2): basic fields of the incoming
	// format that the target cannot represent (they will be dropped). Under
	// a Weigher it caps their summed importance.
	Diff int

	// Mismatch is the maximum allowed MismatchRatio(f1, f2): the fraction of
	// the target's fields the incoming format cannot supply (they will be
	// filled with defaults).
	Mismatch float64
}

// DefaultThresholds tolerates moderate evolution: up to 8 dropped fields and
// up to half of the target filled by defaults.
var DefaultThresholds = Thresholds{Diff: 8, Mismatch: 0.5}

// Weigher returns the importance of a basic field — the paper's future-work
// direction of weighting "different fields and sub-fields based on some
// measure of importance" (§6), so losing a critical field can veto a match
// that losing ten cosmetic fields would not. path is the dot-separated
// field path from the base format (list elements use their list field's
// path, e.g. "member_list.info"). Return 1 for the paper's unweighted
// behaviour, 0 to make a field fully optional, and larger values for fields
// whose loss should dominate the match decision.
type Weigher func(path string, fld *pbio.Field) float64

// Match is a MaxMatch result pair: From ∈ F1 is the format the message will
// be brought into; To ∈ F2 is the reader-side format it will be delivered
// as.
type Match struct {
	From     *pbio.Format
	To       *pbio.Format
	Diff     float64 // Diff(From, To): incoming fields that will be dropped (their importance, when weighted)
	Mismatch float64 // MismatchRatio(From, To): target fields defaulted
}

// IsPerfect reports whether the pair matched with no differences either way.
func (m Match) IsPerfect() bool { return m.Diff == 0 && m.Mismatch == 0 }

// MaxMatch returns the best matching format pair between F1 (the formats an
// incoming message can be transformed into, including its own) and F2 (the
// formats the reader understands), per the paper's conditions:
//
//	 (i) f1 ∈ F1,  (ii) f2 ∈ F2,
//	(iii) Diff(f1, f2) ≤ th.Diff,
//	 (iv) MismatchRatio(f1, f2) ≤ th.Mismatch,
//	 (v) among candidates, least M_r first, then least Diff; remaining ties
//	     are broken deterministically (by position in F1 then F2, so callers
//	     can bias the choice by ordering — e.g. putting the identity
//	     transformation first).
//
// w replaces the unit count of each basic field in Diff and M_r by its
// importance; nil keeps the paper's counts. Each pair costs one name-wise
// walk, which yields both directions at once. ok is false if no pair
// satisfies the thresholds.
func MaxMatch(f1s, f2s []*pbio.Format, th Thresholds, w Weigher) (best Match, ok bool) {
	for _, f1 := range f1s {
		if f1 == nil {
			continue
		}
		for _, f2 := range f2s {
			if f2 == nil {
				continue
			}
			p := pairing{weigh: w}
			p.walk(f1, f2)
			cand := Match{From: f1, To: f2, Diff: p.dropped, Mismatch: p.mismatch()}
			if cand.Diff > float64(th.Diff) || cand.Mismatch > th.Mismatch {
				continue
			}
			if !ok || less(cand, best) {
				best, ok = cand, true
			}
		}
	}
	return best, ok
}

// less orders candidate matches per condition (v). Strict inequality keeps
// the earliest candidate on ties, making the scan order the deterministic
// tie-break.
func less(a, b Match) bool {
	if a.Mismatch != b.Mismatch {
		return a.Mismatch < b.Mismatch
	}
	return a.Diff < b.Diff
}
