package core

import "repro/internal/pbio"

// Diff implements the paper's Algorithm 1: the total number of basic-type
// fields that are present in f1 but not in f2. Fields pair by name and a
// pair counts as present by fitOf, the compatibility rule the converter's
// plan is read from as well (pair.go): numeric kinds are mutually
// compatible, strings only match strings. Both come from the same walk, so
// Diff(f1, f2) = 0 exactly when NewConverter(f1, f2) drops nothing.
//
// Complex fields recurse: a complex field with no same-named complex
// counterpart contributes its whole weight; otherwise the difference of the
// two sub-formats. List fields follow the same rule through their element
// type, counting the element schema once, consistent with Format.Weight.
func Diff(f1, f2 *pbio.Format) int {
	var p pairing
	p.walk(f1, f2)
	return int(p.dropped)
}

// MismatchRatio is the paper's M_r(f1, f2): the fraction of f2's fields that
// f1 cannot supply, i.e. Diff(f2, f1) / Weight(f2). A weightless f2 (no
// basic fields anywhere) has ratio 0 by convention.
func MismatchRatio(f1, f2 *pbio.Format) float64 {
	var p pairing
	p.walk(f1, f2)
	return p.mismatch()
}

// Perfect reports whether (f1, f2) is a perfect matching pair:
// Diff(f1, f2) = Diff(f2, f1) = 0.
func Perfect(f1, f2 *pbio.Format) bool {
	var p pairing
	p.walk(f1, f2)
	return p.dropped == 0 && p.filled == 0
}
