// .morphcap capture files: a tap snapshot written as a spool of ordinary PBIO
// records — format frames announce each record layout once, data frames
// carry the records — the same dogfooding move the registry snapshot made.
// Reading a capture is spool replay through a Morpher that has the record
// formats below registered: the paper's receiver-side morphing, applied to
// our own diagnostic records. A record whose format a newer writer extended
// is converted name-wise to this reader's format, a record format this
// reader does not know is rejected and skipped, and a capture cut off
// mid-write (a crashed process, a truncated download) decodes up to the tear
// with Truncated set instead of an error.
//
// Record formats (Go types below, bound through a pbio.Registry):
//
//	morphcap.header — version, created-at, process label, prefix config
//	morphcap.conn   — connection ID, label, open flag
//	morphcap.format — one full format-frame body for the decoder's format table
//	morphcap.frame  — one captured frame: conn ID, seq, ts, dir, kind, fp,
//	                  full length, trace ID, payload prefix
package tap

import (
	"errors"
	"fmt"
	"io"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/pbio"
	"repro/internal/spool"
	"repro/internal/wire"
)

// CaptureVersion is the .morphcap layout version this package writes.
// Version 1 framed hand-rolled records in wire.FrameCapture control frames;
// ReadCapture refuses it by name.
const CaptureVersion = 2

// ErrCapture is wrapped by malformed-capture errors (distinct from the
// torn-tail case, which is tolerated).
var ErrCapture = errors.New("tap: malformed capture")

// Capture is a decoded .morphcap file.
type Capture struct {
	Version   uint64
	CreatedNS int64
	Proc      string // process label (Tap Config.Name)
	Prefix    int    // prefix config the capture ran with
	Conns     []*CaptureConn
	Truncated bool // file ended mid-record (torn tail); contents up to the tear are intact
}

// CaptureConn is one connection's section of a capture.
type CaptureConn struct {
	ID      uint64
	Label   Label
	Open    bool
	Formats [][]byte
	Records []Record
}

// The capture record types. Byte strings (format bodies, trace IDs,
// payload prefixes) ride in String fields, which are byte-safe.
type (
	capHeader struct {
		Version   uint64 `pbio:"version"`
		CreatedNS int64  `pbio:"created_ns"`
		Proc      string `pbio:"proc"`
		Prefix    int64  `pbio:"prefix"`
	}
	capConn struct {
		Conn  uint64 `pbio:"conn"`
		Label Label  `pbio:"label"`
		Open  bool   `pbio:"open"`
	}
	capFormat struct {
		Conn uint64 `pbio:"conn"`
		Body string `pbio:"body"`
	}
	capFrame struct {
		Conn   uint64      `pbio:"conn"`
		Seq    uint64      `pbio:"seq"`
		TS     int64       `pbio:"ts"`
		Dir    wire.TapDir `pbio:"dir"`
		Kind   uint8       `pbio:"kind"`
		FP     uint64      `pbio:"fp"`
		Len    uint32      `pbio:"len"`
		Trace  string      `pbio:"trace"`
		Prefix string      `pbio:"prefix"`
	}
)

// capRecord is a decoded capture record, folded into the capture being read.
type capRecord interface{ addTo(r *capReader) }

// capTypes binds the record types; capKinds maps each record format name to
// a constructor of its Go type.
var (
	capTypes pbio.Registry
	capKinds = map[string]func() capRecord{
		"morphcap.header": func() capRecord { return new(capHeader) },
		"morphcap.conn":   func() capRecord { return new(capConn) },
		"morphcap.format": func() capRecord { return new(capFormat) },
		"morphcap.frame":  func() capRecord { return new(capFrame) },
	}
)

func init() {
	for name, mk := range capKinds {
		capTypes.MustRegister(mk(), name)
	}
}

// WriteCapture serializes a snapshot to w in .morphcap form.
func WriteCapture(w io.Writer, s Snapshot) error {
	sw := spool.NewWriter(w)
	put := func(v capRecord) error {
		rec, err := capTypes.ToRecord(v)
		if err != nil {
			return err
		}
		return sw.Append(rec)
	}
	err := put(&capHeader{Version: CaptureVersion, CreatedNS: time.Now().UnixNano(), Proc: s.Name, Prefix: int64(s.Prefix)})
	if err != nil {
		return err
	}
	for _, cs := range s.Conns {
		if err := put(&capConn{Conn: cs.ID, Label: cs.Label, Open: cs.Open}); err != nil {
			return err
		}
		for _, fb := range cs.Formats {
			if err := put(&capFormat{Conn: cs.ID, Body: string(fb)}); err != nil {
				return err
			}
		}
		for i := range cs.Records {
			r := &cs.Records[i]
			err := put(&capFrame{Conn: cs.ID, Seq: r.Seq, TS: r.TS, Dir: r.Dir, Kind: r.Kind,
				FP: r.FP, Len: r.Len, Trace: string(r.Trace[:]), Prefix: string(r.Prefix)})
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// ReadCapture decodes a .morphcap stream. A torn tail (EOF mid-record) is not
// an error: decoding stops at the tear and Truncated is set.
func ReadCapture(r io.Reader) (*Capture, error) {
	cr := &capReader{c: &Capture{}, byID: make(map[uint64]*CaptureConn)}
	// Any same-name pair is within these thresholds: a capture record always
	// converts name-wise to this reader's layout of its type.
	m := core.NewMorpher(core.Thresholds{Diff: math.MaxInt, Mismatch: 1})
	for _, mk := range capKinds {
		// Registration fails only for a nil format or handler.
		_ = m.RegisterFormat(capTypes.FormatOf(mk()), func(rec *pbio.Record) error {
			v := mk()
			if err := capTypes.FromRecord(rec, v); err != nil {
				return err
			}
			v.addTo(cr)
			return nil
		})
	}
	sr := spool.NewReader(r, wire.WithMorpher(m), wire.WithControlHook(wire.FrameCapture, func([]byte) error {
		return fmt.Errorf("version 1 capture; this reader reads version %d", CaptureVersion)
	}))
	if err := sr.Replay(); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrCapture, err)
	}
	cr.c.Truncated = sr.Truncated()
	return cr.c, nil
}

// capReader accumulates a Capture, finding each connection's section by ID.
type capReader struct {
	c    *Capture
	byID map[uint64]*CaptureConn
}

func (r *capReader) conn(id uint64) *CaptureConn {
	if cc := r.byID[id]; cc != nil {
		return cc
	}
	cc := &CaptureConn{ID: id}
	r.byID[id] = cc
	r.c.Conns = append(r.c.Conns, cc)
	return cc
}

func (h *capHeader) addTo(r *capReader) {
	r.c.Version, r.c.CreatedNS, r.c.Proc, r.c.Prefix = h.Version, h.CreatedNS, h.Proc, int(h.Prefix)
}

func (v *capConn) addTo(r *capReader) {
	cc := r.conn(v.Conn)
	cc.Label, cc.Open = v.Label, v.Open
}

func (v *capFormat) addTo(r *capReader) {
	cc := r.conn(v.Conn)
	cc.Formats = append(cc.Formats, []byte(v.Body))
}

func (v *capFrame) addTo(r *capReader) {
	rec := Record{Seq: v.Seq, TS: v.TS, Dir: v.Dir, Kind: v.Kind, FP: v.FP, Len: v.Len}
	copy(rec.Trace[:], v.Trace)
	if v.Prefix != "" {
		rec.Prefix = []byte(v.Prefix)
	}
	cc := r.conn(v.Conn)
	cc.Records = append(cc.Records, rec)
}
