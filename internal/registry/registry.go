// Package registry is the reproduction of PBIO's third-party *format
// server* (PAPER §2): a shared service that stores format descriptions and
// their associated transformation meta-data keyed by the 8-byte fingerprint
// that rides every data frame. With a registry in reach, peers stop pushing
// format control frames in-band on every connection — the sender registers
// its formats once at startup, suppresses the per-connection announcements,
// and each receiver resolves a fingerprint it has never seen with one cached
// round-trip. Components "separated in space and/or time" (§1) can name each
// other's formats without ever sharing a live link.
//
// The subsystem is two halves over one protocol:
//
//   - Server (cmd/formatd): an in-memory fingerprint → entry table served
//     over the existing wire framing — registry RPCs ride a dedicated
//     control-frame kind (wire.FrameRegistry), so the daemon speaks the same
//     transport as every other component. /debug/registryz exposes the
//     table; an optional spool snapshot makes restarts lossless. The Server
//     also owns replication (cluster.go): given a peer set (WithPeers) it
//     elects a primary, replicates as a standby, forwards writes, and
//     promotes on failure. A standalone daemon is a peer set of one — the
//     primary from construction.
//
//   - Client: an LRU-cached, singleflight-deduplicated resolver implementing
//     wire.FormatResolver (read side), the wire.WithFormatSuppressor
//     predicate (send side), and core.TransformSource (morph side).
//
// Degradation is the design center, not an afterthought: every client
// failure path (daemon down, timeout, unknown fingerprint) reports cleanly,
// flips the client into a backed-off "down" state in which the suppressor
// stops suppressing, and the wire layer's re-announcement protocol
// (frameFormatReq) recovers any message already in flight — a dead registry
// degrades to exactly the in-band exchange the system used before it
// existed.
package registry

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/pbio"
	"repro/internal/wire"
)

// RPC protocol, carried in wire.FrameRegistry control frames:
//
//	request:  op(1) | uvarint reqID | payload
//	response: op(1) | uvarint reqID | status(1) | payload
//	event:    op(1) | uvarint seq   | fp(8, LE) | entry blob
//
// opGet's payload is an 8-byte little-endian fingerprint; opPut's payload
// and opGetResp's statusOK payload are an entry blob (encodeEntry). Unknown
// ops in requests are answered with statusError so old daemons stay
// interrogable by newer clients.
//
// The watch/invalidation stream rides the same frame kind. opHello's
// statusOK response carries capability(1) | instance(8, LE) | uvarint seq —
// a capability bitmask (capWatch), the daemon's random instance ID (so a
// client can tell a restarted daemon from a reconnect and discard its seqno
// bookkeeping), and the daemon's current event seqno. opWatch's payload is
// uvarint afterSeq, the last event seqno the client has applied (0 = none);
// the statusOK response echoes the daemon's current seqno, and from then on
// the daemon pushes one opEvent per table mutation with seq > afterSeq —
// replayed from a bounded ring, or as a full-table resync when the ring no
// longer reaches back far enough (or the client's seqno belongs to another
// instance). opEvent reuses the reqID varint slot as the event seqno and is
// never answered. opUnwatch cancels the subscription.
const (
	opGet         byte = 1 // resolve fingerprint → entry
	opPut         byte = 2 // publish entry
	opGetResp     byte = 3
	opPutResp     byte = 4
	opHello       byte = 5 // capability/instance/seqno probe
	opHelloResp   byte = 6
	opWatch       byte = 7 // subscribe to table mutations after a seqno
	opWatchResp   byte = 8
	opEvent       byte = 9 // daemon push: one new/changed entry
	opUnwatch     byte = 10
	opUnwatchResp byte = 11
)

// Capability bits advertised in the opHello response.
const (
	capWatch byte = 1 << 0 // daemon supports opWatch/opEvent/opUnwatch
)

// Cluster roles, advertised in the opHello response extension and returned
// by Server.Role. A pre-cluster daemon sends no extension at all and parses
// as RoleNone, as does a peer whose election is still in flight; neither is
// a primary, so peers never defer to it.
const (
	RoleNone    byte = 0 // no role yet (mid-election), or extension absent
	RolePrimary byte = 1 // accepts writes, sources the replication stream
	RoleStandby byte = 2 // replicates from the primary, forwards writes
)

// RoleName renders a role byte for logs and debug documents.
func RoleName(role byte) string {
	switch role {
	case RolePrimary:
		return "primary"
	case RoleStandby:
		return "standby"
	default:
		return "none"
	}
}

// Response status codes.
const (
	statusOK      byte = 0
	statusUnknown byte = 1 // fingerprint not in the table
	statusError   byte = 2 // payload: error text
	statusRetry   byte = 3 // transient: retry this write (here or on another replica)
)

// Registry errors.
var (
	// ErrUnknownFingerprint is returned by Resolve for fingerprints the
	// daemon does not hold (including negative-cache hits).
	ErrUnknownFingerprint = errors.New("registry: unknown fingerprint")

	// ErrDown is returned while the client is in its backed-off down state:
	// the daemon was unreachable recently and the backoff has not expired.
	ErrDown = errors.New("registry: down")

	// ErrClosed is returned by operations on a closed client.
	ErrClosed = errors.New("registry: client closed")

	// ErrWatchUnsupported is returned by Watch when the daemon predates the
	// watch protocol (its hello does not advertise capWatch, or it answers
	// opHello with an error as pre-watch daemons do). The client then stays
	// on poll-on-miss resolution — the PR 4 behavior — without retrying.
	ErrWatchUnsupported = errors.New("registry: daemon does not support watch")

	// ErrRetryable is returned by Register when the daemon refused the write
	// for a transient cluster reason — it is a standby whose forward path to
	// the primary is down, or an election is still in flight — and the write
	// was NOT applied anywhere. Retrying (the same replica after a beat, or
	// another one: the cluster client's rotation does exactly this) is the
	// correct response.
	ErrRetryable = errors.New("registry: write not accepted (retry)")
)

// Entry is one registry record: a format description plus the transforms
// declared with it (transforms whose chains lead *from* this format, exactly
// what a format control frame would have carried in-band).
type Entry struct {
	Format *pbio.Format
	Xforms []*core.Xform
}

// encodeEntry serializes an entry. The layout is a format control frame body —
// uvarint-framed format blob, transform count, uvarint-framed transform blobs
// — so the wire package's codec is the only one, and an entry can be served
// or relayed as a format frame without re-encoding.
func encodeEntry(f *pbio.Format, xforms []*core.Xform) []byte {
	return wire.AppendFormatFrame(nil, f, xforms)
}

// decodeEntry parses an entry blob. Transform code is not compiled here: the
// daemon stores what it is given, and consumers validate when they adopt an
// entry (the wire layer's registry path does).
func decodeEntry(body []byte) (Entry, error) {
	f, xforms, err := wire.ParseFormatFrame(body, false)
	if err != nil {
		return Entry{}, fmt.Errorf("registry: malformed entry: %w", err)
	}
	return Entry{Format: f, Xforms: xforms}, nil
}

// appendRequest frames one RPC request body.
func appendRequest(dst []byte, op byte, reqID uint64, payload []byte) []byte {
	dst = append(dst, op)
	dst = binary.AppendUvarint(dst, reqID)
	return append(dst, payload...)
}

// appendResponse frames one RPC response body.
func appendResponse(dst []byte, op byte, reqID uint64, status byte, payload []byte) []byte {
	dst = append(dst, op)
	dst = binary.AppendUvarint(dst, reqID)
	dst = append(dst, status)
	return append(dst, payload...)
}

// appendEvent frames one watch-event push: the reqID varint slot carries the
// event seqno, the payload is the fingerprint plus the entry blob.
func appendEvent(dst []byte, seq, fp uint64, blob []byte) []byte {
	dst = append(dst, opEvent)
	dst = binary.AppendUvarint(dst, seq)
	var key [8]byte
	binary.LittleEndian.PutUint64(key[:], fp)
	dst = append(dst, key[:]...)
	return append(dst, blob...)
}

// parseEvent splits an opEvent payload (everything after the seqno varint)
// into fingerprint and entry blob.
func parseEvent(rest []byte) (fp uint64, blob []byte, err error) {
	if len(rest) < 8 {
		return 0, nil, fmt.Errorf("registry: short watch event (%d bytes)", len(rest))
	}
	return binary.LittleEndian.Uint64(rest[:8]), rest[8:], nil
}

// appendHello frames the base opHello statusOK response payload: capability
// bitmask, daemon instance ID, current event seqno. The server follows it
// with the cluster extension, one role byte. Pre-cluster clients stop
// parsing after the seqno varint and so ignore the extension.
func appendHello(dst []byte, caps byte, instance, seq uint64) []byte {
	dst = append(dst, caps)
	var inst [8]byte
	binary.LittleEndian.PutUint64(inst[:], instance)
	dst = append(dst, inst[:]...)
	return binary.AppendUvarint(dst, seq)
}

// helloInfo is a fully parsed opHello response: the watch handshake fields
// plus the cluster extension's role.
type helloInfo struct {
	caps     byte
	instance uint64
	seq      uint64
	role     byte // RoleNone when the daemon sent no extension
}

// parseHelloInfo decodes an opHello statusOK response payload. A missing
// extension is not an error — the daemon predates cluster mode and reads as
// RoleNone. Bytes after the role are ignored: earlier daemons also sent
// their peer index and shard count there, which nothing reads.
func parseHelloInfo(b []byte) (helloInfo, error) {
	var hi helloInfo
	if len(b) < 9 {
		return hi, fmt.Errorf("registry: short hello response (%d bytes)", len(b))
	}
	hi.caps = b[0]
	hi.instance = binary.LittleEndian.Uint64(b[1:9])
	seq, used := binary.Uvarint(b[9:])
	if used <= 0 {
		return hi, errors.New("registry: bad hello seqno")
	}
	hi.seq = seq
	if rest := b[9+used:]; len(rest) > 0 {
		hi.role = rest[0]
	}
	return hi, nil
}

// ShardOf maps a fingerprint into the cluster's shard space. Fingerprints
// are already content hashes, but a cheap avalanche (murmur3 finalizer)
// guards against formats whose low bits correlate. Shard count <= 1 (or a
// non-positive value) collapses to shard 0 — single-shard routing.
func ShardOf(fp uint64, shards int) int {
	if shards <= 1 {
		return 0
	}
	x := fp
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	return int(x % uint64(shards))
}

// parseHeader splits op and reqID off an RPC frame body, returning the rest.
func parseHeader(body []byte) (op byte, reqID uint64, rest []byte, err error) {
	if len(body) < 2 {
		return 0, 0, nil, fmt.Errorf("registry: short RPC frame (%d bytes)", len(body))
	}
	op = body[0]
	id, used := binary.Uvarint(body[1:])
	if used <= 0 {
		return 0, 0, nil, errors.New("registry: bad RPC request id")
	}
	return op, id, body[1+used:], nil
}
