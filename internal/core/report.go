package core

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/pbio"
)

// FieldChange describes one difference between two format revisions, for
// tooling and logs. Path is dot-separated from the base format.
type FieldChange struct {
	Path string
	Kind ChangeKind
	From string // type description in the old format ("" for added fields)
	To   string // type description in the new format ("" for removed fields)
}

// ChangeKind classifies a FieldChange.
type ChangeKind uint8

// Change kinds.
const (
	FieldAdded ChangeKind = iota
	FieldRemoved
	FieldRetyped // same name, incompatible kind (morphing treats as remove+add)
	FieldResized // compatible kind, different kind or wire width (copied by value)
)

func (k ChangeKind) String() string {
	switch k {
	case FieldAdded:
		return "added"
	case FieldRemoved:
		return "removed"
	case FieldRetyped:
		return "retyped"
	case FieldResized:
		return "resized"
	default:
		return fmt.Sprintf("change(%d)", uint8(k))
	}
}

// DiffReport lists the field-level differences going from format a to
// format b, recursively through complex and list fields, sorted by path.
// It is the human-readable companion of Diff, read off the same name-wise
// walk: fields reported as removed or retyped are what Diff(a, b) counts;
// added or retyped fields are what Diff(b, a) counts; resized fields are
// the coerced copies that keep a conversion off the splice lane.
func DiffReport(a, b *pbio.Format) []FieldChange {
	p := pairing{report: true}
	p.walk(a, b)
	out := p.changes
	sort.Slice(out, func(i, j int) bool {
		if out[i].Path != out[j].Path {
			return out[i].Path < out[j].Path
		}
		return out[i].Kind < out[j].Kind
	})
	return out
}

func fieldDesc(f *pbio.Field) string {
	switch f.Kind {
	case pbio.Complex:
		return fmt.Sprintf("record %q (%d fields)", f.Sub.Name(), f.Sub.NumFields())
	case pbio.List:
		return "list of " + fieldDesc(f.Elem)
	case pbio.String:
		return "string"
	default:
		return fmt.Sprintf("%v(%d)", f.Kind, f.Size)
	}
}

// FormatChanges renders a DiffReport as one line per change, the format
// used by the ecodec tool.
func FormatChanges(changes []FieldChange) string {
	if len(changes) == 0 {
		return "no structural changes\n"
	}
	var b strings.Builder
	for _, c := range changes {
		switch c.Kind {
		case FieldAdded:
			fmt.Fprintf(&b, "+ %-28s %s\n", c.Path, c.To)
		case FieldRemoved:
			fmt.Fprintf(&b, "- %-28s %s\n", c.Path, c.From)
		default:
			fmt.Fprintf(&b, "~ %-28s %s → %s (%s)\n", c.Path, c.From, c.To, c.Kind)
		}
	}
	return b.String()
}
