// Package echo reimplements the ECho event delivery middleware used as the
// paper's running example (§4.1): channel-based publish/subscribe where
// event channels match sources to sinks, and a process joins a channel with
// a ChannelOpenRequest answered by a ChannelOpenResponse listing the current
// membership.
//
// The package deliberately contains both protocol revisions of the
// ChannelOpenResponse message (Figure 4) and the Figure 5 transformation
// that morphs v2.0 responses into v1.0 form. A Server always speaks v2.0
// and attaches the transformation to the format's out-of-band meta-data; a
// Subscriber created with V1Compat registers only the v1.0 format — exactly
// an un-upgraded deployment — and interoperates anyway, with no version
// negotiation and no server-side compatibility code.
//
// Event payloads are ordinary PBIO records of any format. Each subscriber
// owns a core.Morpher, so payload formats can evolve the same way protocol
// messages do: publishers attach transformations with Subscriber.Declare
// and old sinks keep working.
//
// The broker (Server) is four files: server.go (accept and lifecycle),
// join.go (handshake and membership), fanout.go (the fan-out pass and
// member filters) and sinkqueue.go (each sink's outbound queue and its
// accounting).
package echo
