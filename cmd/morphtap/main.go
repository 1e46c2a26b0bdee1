// Command morphtap decodes .morphcap wire captures offline — the flight
// recorder's ground station. A capture (exported from a live process via
// /debug/tapz?format=morphcap, or written by tests) holds per-connection
// frame records plus every full format frame the tap saw, so the decoder is
// registry-aware without any live registry: fingerprints resolve against the
// embedded format table first, and optionally against a running formatd
// (-formatd) for fingerprints the capture never saw declared.
//
//	morphtap capture.morphcap                    # decoded timeline
//	morphtap client.morphcap server.morphcap     # merged multi-process timeline
//	morphtap -trace 4f2a capture.morphcap        # one trace's frames only
//	morphtap -formats capture.morphcap           # the embedded format table
//	morphtap -replay -out got.bin capture.morphcap
//
// Multiple captures merge into one wall-clock-ordered timeline, so a client
// capture and a server capture of the same session line up and trace IDs
// correlate across processes.
//
// -replay feeds the captured data frames (read direction, fully captured)
// back through a morphing engine built from the capture's own format table —
// transformation meta-data included — and writes each delivered message as
// [uvarint length][bytes] to -out. With -to (a format name, or a hex
// fingerprint to pin one generation of an evolved format), frames are
// morphed to that format on the way, reproducing a down-level sink's view;
// without it every frame replays in its wire format, reproducing the splice
// lane byte-exactly.
package main

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/pbio"
	"repro/internal/registry"
	"repro/internal/tap"
	"repro/internal/trace"
	"repro/internal/wire"
)

func main() {
	var (
		formatd  = flag.String("formatd", "", "formatd address for resolving fingerprints the capture lacks")
		channel  = flag.String("channel", "", "only connections labeled with this channel")
		kindName = flag.String("kind", "", "only frames of this kind (format, data, trace, format_req, registry, capture, or a byte)")
		fpHex    = flag.String("fp", "", "only data frames with this hex fingerprint")
		tracePfx = flag.String("trace", "", "only frames whose trace ID starts with this hex prefix")
		formats  = flag.Bool("formats", false, "print the capture's format table and exit")
		jsonOut  = flag.Bool("json", false, "emit the timeline as JSON")
		doReplay = flag.Bool("replay", false, "replay captured data frames through a morphing engine")
		to       = flag.String("to", "", "replay target format: name or hex fingerprint (empty = each frame's own format)")
		outPath  = flag.String("out", "", "replay output file (empty = stdout)")
	)
	flag.Parse()
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: morphtap [flags] capture.morphcap [more.morphcap ...]")
		flag.PrintDefaults()
		os.Exit(2)
	}

	caps, err := loadCaptures(flag.Args())
	if err != nil {
		fmt.Fprintln(os.Stderr, "morphtap:", err)
		os.Exit(1)
	}
	var resolve resolver
	if *formatd != "" {
		rc := registry.NewClient(*formatd)
		defer rc.Close()
		resolve = rc.ResolveFormat
	}
	table := buildTable(caps, resolve)

	switch {
	case *formats:
		printFormats(os.Stdout, table)
	case *doReplay:
		out := io.Writer(os.Stdout)
		if *outPath != "" {
			f, err := os.Create(*outPath)
			if err != nil {
				fmt.Fprintln(os.Stderr, "morphtap:", err)
				os.Exit(1)
			}
			defer f.Close()
			out = f
		}
		events := timeline(caps, tap.Filter{})
		delivered, skipped, err := replay(events, table, *to, out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "morphtap: replay:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "replayed %d frames (%d skipped)\n", delivered, skipped)
	default:
		filt, err := tap.ParseFilter(url.Values{
			"channel": {*channel}, "kind": {*kindName}, "fp": {*fpHex}, "trace": {*tracePfx},
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "morphtap:", err)
			os.Exit(2)
		}
		events := timeline(caps, filt)
		if *jsonOut {
			writeJSON(os.Stdout, events, table)
		} else {
			writeTimeline(os.Stdout, caps, events, table)
		}
	}
}

// capFile is one loaded capture plus the process label it contributes to the
// merged timeline.
type capFile struct {
	path string
	proc string
	cap  *tap.Capture
}

func loadCaptures(paths []string) ([]*capFile, error) {
	caps := make([]*capFile, 0, len(paths))
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			return nil, err
		}
		c, err := tap.ReadCapture(f)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		proc := c.Proc
		if proc == "" {
			proc = strings.TrimSuffix(filepath.Base(p), ".morphcap")
		}
		caps = append(caps, &capFile{path: p, proc: proc, cap: c})
	}
	return caps, nil
}

// formatEntry is one resolved fingerprint in the decoder's format table.
type formatEntry struct {
	format *pbio.Format
	xforms []*core.Xform
	source string // "capture" or "formatd"
}

type resolver func(fp uint64) (*pbio.Format, []*core.Xform, error)

// buildTable assembles the fingerprint table: every format frame embedded in
// the captures (parsed with the same code path a live connection uses), then
// — when a resolver is attached — any fingerprint referenced by a data frame
// that the captures never saw declared.
func buildTable(caps []*capFile, resolve resolver) map[uint64]*formatEntry {
	table := make(map[uint64]*formatEntry)
	for _, cf := range caps {
		for _, cc := range cf.cap.Conns {
			for _, fb := range cc.Formats {
				f, xforms, err := wire.ParseFormatFrame(fb, false)
				if err != nil {
					continue // a corrupt embedded frame only costs its entry
				}
				table[f.Fingerprint()] = &formatEntry{format: f, xforms: xforms, source: "capture"}
				// Transform endpoints are formats in their own right — a
				// replay targeting the down-level side of an evolution (-to)
				// needs them resolvable even though no peer ever declared
				// them standalone.
				for _, x := range xforms {
					for _, ef := range []*pbio.Format{x.From, x.To} {
						if ef != nil && table[ef.Fingerprint()] == nil {
							table[ef.Fingerprint()] = &formatEntry{format: ef, source: "capture"}
						}
					}
				}
			}
		}
	}
	if resolve == nil {
		return table
	}
	missed := make(map[uint64]bool)
	for _, cf := range caps {
		for _, cc := range cf.cap.Conns {
			for i := range cc.Records {
				fp := cc.Records[i].FP
				if fp == 0 || table[fp] != nil || missed[fp] {
					continue
				}
				if f, xforms, err := resolve(fp); err == nil {
					table[fp] = &formatEntry{format: f, xforms: xforms, source: "formatd"}
				} else {
					missed[fp] = true
				}
			}
		}
	}
	return table
}

// event is one captured frame in the merged timeline.
type event struct {
	proc string
	conn *tap.CaptureConn
	rec  *tap.Record
}

// timeline merges every capture's frames into one wall-clock-ordered stream.
// Capture timestamps are wall-clock for exactly this reason: frames recorded
// by different processes interleave into a single cross-process view, the
// correlation a trace ID search rides on.
func timeline(caps []*capFile, filt tap.Filter) []event {
	var events []event
	for _, cf := range caps {
		for _, cc := range cf.cap.Conns {
			if !filt.MatchConn(cc.ID, cc.Label) {
				continue
			}
			for i := range cc.Records {
				if filt.MatchRecord(&cc.Records[i]) {
					events = append(events, event{proc: cf.proc, conn: cc, rec: &cc.Records[i]})
				}
			}
		}
	}
	sort.SliceStable(events, func(i, j int) bool {
		if events[i].rec.TS != events[j].rec.TS {
			return events[i].rec.TS < events[j].rec.TS
		}
		if events[i].proc != events[j].proc {
			return events[i].proc < events[j].proc
		}
		return events[i].rec.Seq < events[j].rec.Seq
	})
	return events
}

func labelString(l tap.Label) string {
	parts := make([]string, 0, 3)
	if l.Proto != "" {
		parts = append(parts, l.Proto)
	}
	if l.Channel != "" {
		parts = append(parts, l.Channel)
	}
	if l.Role != "" {
		parts = append(parts, l.Role)
	}
	return strings.Join(parts, "/")
}

func writeTimeline(w io.Writer, caps []*capFile, events []event, table map[uint64]*formatEntry) {
	for _, cf := range caps {
		trunc := ""
		if cf.cap.Truncated {
			trunc = " (truncated tail)"
		}
		fmt.Fprintf(w, "# %s: proc=%q %d conns, captured %s%s\n",
			cf.path, cf.proc, len(cf.cap.Conns),
			time.Unix(0, cf.cap.CreatedNS).Format(time.RFC3339), trunc)
	}
	for _, ev := range events {
		r := ev.rec
		arrow := "<-"
		if r.Dir == wire.TapWrite {
			arrow = "->"
		}
		fmt.Fprintf(w, "%s %s conn=%d[%s] %s %-10s %6dB",
			time.Unix(0, r.TS).Format("15:04:05.000000"), ev.proc,
			ev.conn.ID, labelString(ev.conn.Label), arrow,
			wire.FrameKindName(r.Kind), r.Len)
		if r.FP != 0 {
			fmt.Fprintf(w, " fp=%016x", r.FP)
		}
		if !r.Trace.IsZero() {
			fmt.Fprintf(w, " trace=%s", r.Trace.String())
		}
		if !r.Complete() {
			fmt.Fprint(w, " (partial)")
		}
		if s := decodeEvent(r, table); s != "" {
			fmt.Fprintf(w, " %s", s)
		}
		fmt.Fprintln(w)
	}
}

// decodeEvent renders a fully-captured data frame field by field when its
// format is resolvable, or names the format of a partial capture.
func decodeEvent(r *tap.Record, table map[uint64]*formatEntry) string {
	if r.Kind != wire.KindData || r.FP == 0 {
		return ""
	}
	fe := table[r.FP]
	if fe == nil {
		return "(format unknown)"
	}
	if !r.Complete() {
		return fmt.Sprintf("(%s, prefix only)", fe.format.Name())
	}
	rec, err := pbio.DecodeRecord(r.Prefix, fe.format)
	if err != nil {
		return fmt.Sprintf("(%s: %v)", fe.format.Name(), err)
	}
	return rec.String()
}

func printFormats(w io.Writer, table map[uint64]*formatEntry) {
	fps := make([]uint64, 0, len(table))
	for fp := range table {
		fps = append(fps, fp)
	}
	sort.Slice(fps, func(i, j int) bool { return fps[i] < fps[j] })
	fmt.Fprintf(w, "# %d formats resolved\n", len(fps))
	for _, fp := range fps {
		fe := table[fp]
		fmt.Fprintf(w, "%016x %-24s %d fields (%s)\n",
			fp, fe.format.Name(), len(fe.format.Fields()), fe.source)
		for _, x := range fe.xforms {
			fmt.Fprintf(w, "  xform %s(%016x) -> %s(%016x)\n",
				x.From.Name(), x.From.Fingerprint(), x.To.Name(), x.To.Fingerprint())
		}
	}
}

// eventJSON is the -json timeline element.
type eventJSON struct {
	TS      time.Time `json:"ts"`
	Proc    string    `json:"proc"`
	Conn    uint64    `json:"conn"`
	Label   tap.Label `json:"label"`
	Seq     uint64    `json:"seq"`
	Dir     string    `json:"dir"`
	Kind    string    `json:"kind"`
	Len     uint32    `json:"len"`
	FP      string    `json:"fingerprint,omitempty"`
	TraceID string    `json:"trace_id,omitempty"`
	Format  string    `json:"format,omitempty"`
	Decoded string    `json:"decoded,omitempty"`
	Partial bool      `json:"partial,omitempty"`
}

func writeJSON(w io.Writer, events []event, table map[uint64]*formatEntry) {
	out := make([]eventJSON, 0, len(events))
	for _, ev := range events {
		r := ev.rec
		ej := eventJSON{
			TS: time.Unix(0, r.TS), Proc: ev.proc, Conn: ev.conn.ID,
			Label: ev.conn.Label, Seq: r.Seq, Dir: r.Dir.String(),
			Kind: wire.FrameKindName(r.Kind), Len: r.Len, Partial: !r.Complete(),
		}
		if r.FP != 0 {
			ej.FP = fmt.Sprintf("%016x", r.FP)
			if fe := table[r.FP]; fe != nil {
				ej.Format = fe.format.Name()
				if r.Complete() {
					if rec, err := pbio.DecodeRecord(r.Prefix, fe.format); err == nil {
						ej.Decoded = rec.String()
					}
				}
			}
		}
		if !r.Trace.IsZero() {
			ej.TraceID = r.Trace.String()
		}
		out = append(out, ej)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(out)
}

// replay feeds the captured read-direction data frames, in timeline order,
// through a morphing engine assembled from the capture's own format table
// (transformation meta-data included). Each delivered message is written to
// out as [uvarint length][bytes] — with an empty target every frame replays
// in its wire format on the splice lane, so the output is byte-identical to
// what the live process's handlers consumed. Frames whose format is unknown,
// whose payload was only partially captured, or that no registered format
// matches (core.ErrRejected, when -to narrows the targets) are skipped and
// counted, not fatal: a bounded ring is allowed to have holes.
func replay(events []event, table map[uint64]*formatEntry, to string, out io.Writer) (delivered, skipped int, err error) {
	m := core.NewMorpher(core.DefaultThresholds)
	var buf []byte
	sink := func(data []byte, f *pbio.Format) error {
		buf = binary.AppendUvarint(buf[:0], uint64(len(data)))
		buf = append(buf, data...)
		_, werr := out.Write(buf)
		return werr
	}
	registered := 0
	for _, fe := range table {
		// Evolved formats share a name (name-based matching is how the
		// morpher routes between generations), so -to also accepts a hex
		// fingerprint to pin one specific generation.
		if to == "" || fe.format.Name() == to ||
			fmt.Sprintf("%016x", fe.format.Fingerprint()) == strings.ToLower(to) {
			if rerr := m.RegisterFormatEncoded(fe.format, sink); rerr != nil {
				return 0, 0, rerr
			}
			registered++
		}
		for _, x := range fe.xforms {
			if aerr := m.AddTransform(x); aerr != nil {
				return 0, 0, aerr
			}
		}
	}
	if registered == 0 {
		return 0, 0, fmt.Errorf("no format named %q in the capture table", to)
	}
	for _, ev := range events {
		r := ev.rec
		if r.Dir != wire.TapRead || r.Kind != wire.KindData || r.FP == 0 {
			continue
		}
		fe := table[r.FP]
		if fe == nil || !r.Complete() {
			skipped++
			continue
		}
		derr := m.DeliverEncodedCtx(r.Prefix, fe.format, trace.Context{Trace: r.Trace})
		switch {
		case derr == nil:
			delivered++
		case errors.Is(derr, core.ErrRejected):
			skipped++
		default:
			return delivered, skipped, derr
		}
	}
	return delivered, skipped, nil
}
