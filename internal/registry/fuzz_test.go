package registry

import (
	"bytes"
	"testing"

	"repro/internal/core"
	"repro/internal/fleetgen"
)

// FuzzRegistryBodies feeds arbitrary bytes to every parser of a registry
// frame body: the RPC header, the watch-event payload, the hello response
// and the entry blob. None may panic, and whatever a parser accepts must
// round-trip through the matching append function.
func FuzzRegistryBodies(f *testing.F) {
	// The three hello vintages: pre-cluster (no extension), role|index|shards
	// and role only.
	hello := appendHello(nil, capWatch, 0x1122334455667788, 300)
	f.Add(hello)
	f.Add(append(append([]byte(nil), hello...), RoleStandby, 2, 4))
	f.Add(append(append([]byte(nil), hello...), RolePrimary))

	l, err := fleetgen.NewLineage("registry.fuzz", 1, 1, 3)
	if err != nil {
		f.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := l.Evolve(); err != nil {
			f.Fatal(err)
		}
	}
	gens := l.Generations()
	for i, g := range gens[1:] {
		x, err := fleetgen.XformBetween(g, gens[i])
		if err != nil {
			f.Fatal(err)
		}
		blob := encodeEntry(g.Format, nil)
		f.Add(blob)
		f.Add(encodeEntry(g.Format, []*core.Xform{x}))
		f.Add(appendRequest(nil, opPut, uint64(i)+1, blob))
		f.Add(appendEvent(nil, uint64(i)<<20, g.Format.Fingerprint(), blob))
	}
	f.Add([]byte{opGet, 0x80})
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, body []byte) {
		if op, id, rest, err := parseHeader(body); err == nil {
			op2, id2, rest2, err := parseHeader(appendRequest(nil, op, id, rest))
			if err != nil || op2 != op || id2 != id || !bytes.Equal(rest2, rest) {
				t.Fatalf("request %d/%d/%x re-parsed as %d/%d/%x (%v)", op, id, rest, op2, id2, rest2, err)
			}
			if fp, blob, err := parseEvent(rest); err == nil {
				op3, seq, rest3, err := parseHeader(appendEvent(nil, id, fp, blob))
				if err != nil || op3 != opEvent || seq != id {
					t.Fatalf("event seq %d re-parsed as op %d seq %d (%v)", id, op3, seq, err)
				}
				fp3, blob3, err := parseEvent(rest3)
				if err != nil || fp3 != fp || !bytes.Equal(blob3, blob) {
					t.Fatalf("event %016x/%x re-parsed as %016x/%x (%v)", fp, blob, fp3, blob3, err)
				}
			}
		}
		if hi, err := parseHelloInfo(body); err == nil {
			hi2, err := parseHelloInfo(append(appendHello(nil, hi.caps, hi.instance, hi.seq), hi.role))
			if err != nil || hi2 != hi {
				t.Fatalf("hello %+v re-parsed as %+v (%v)", hi, hi2, err)
			}
		}
		if e, err := decodeEntry(body); err == nil {
			e2, err := decodeEntry(encodeEntry(e.Format, e.Xforms))
			if err != nil || e2.Format.Fingerprint() != e.Format.Fingerprint() || len(e2.Xforms) != len(e.Xforms) {
				t.Fatalf("entry %016x with %d transforms did not round-trip (%v)", e.Format.Fingerprint(), len(e.Xforms), err)
			}
			for i, x := range e.Xforms {
				y := e2.Xforms[i]
				if y.From.Fingerprint() != x.From.Fingerprint() || y.To.Fingerprint() != x.To.Fingerprint() || y.Code != x.Code {
					t.Fatalf("entry transform %d did not round-trip", i)
				}
			}
		}
	})
}
