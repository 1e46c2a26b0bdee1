// Package core implements Message Morphing, the primary contribution of the
// ICDCS 2005 paper "Lightweight Morphing Support for Evolving Middleware
// Data Exchanges in Distributed Applications".
//
// The pieces map to the paper as follows:
//
//   - Diff is Algorithm 1: the recursive count of basic fields present in
//     one format but not another; it reads the one name-wise pairing
//     (pair.go) that MaxMatch, DiffReport and the Converter plan read too.
//   - MismatchRatio is the paper's M_r normalization metric.
//   - MaxMatch selects the best (incoming, understood) format pair subject
//     to DIFF_THRESHOLD and MISMATCH_THRESHOLD (conditions i–v).
//   - Morpher is the receiver-side engine of Algorithm 2: it caches
//     per-format decisions, compiles transformation code on demand, applies
//     transformation chains (Figure 1's retro-transformations), fills
//     default values for missing fields, drops unknown fields, and
//     dispatches to the handler registered for the matched format.
//
// A Morpher is safe for concurrent use; the expensive match-and-compile path
// runs once per incoming format fingerprint and is cached thereafter, which
// is what makes morphing viable on high-bandwidth flows.
package core
