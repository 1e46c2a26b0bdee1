// Package repro is a Go reproduction of "Lightweight Morphing Support for
// Evolving Middleware Data Exchanges in Distributed Applications"
// (Agarwala, Eisenhauer, Schwan — ICDCS 2005).
//
// The implementation lives under internal/:
//
//	internal/core   — message morphing: Diff, MaxMatch, the Morpher engine
//	internal/pbio   — PBIO-style binary wire format with out-of-band meta-data
//	internal/ecode  — the E-Code C subset (lexer → parser → Go closures)
//	internal/echo   — the ECho publish/subscribe middleware of §4.1
//	internal/wire   — framed transport carrying formats and transforms out-of-band
//	internal/xmlx   — XML encode/parse/bind baseline
//	internal/xslt   — XSLT 1.0 subset + XPath-lite baseline
//	internal/bench  — the evaluation (§5) and the fleet chaos soak
//
// `go run ./cmd/morphbench` prints every table and figure of the paper's
// evaluation in the paper's layout; internal/bench's tests gate their
// shapes on allocation counts. Performance of the messaging stack itself
// (publisher → broker → sinks over real sockets, end to end and per layer)
// is measured by `bash benchmark/run.sh`; see benchmark/README.md. See
// DESIGN.md for the system inventory and EXPERIMENTS.md for measured-vs-paper
// results.
package repro
