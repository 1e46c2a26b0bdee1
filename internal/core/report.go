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
	FieldResized // same kind, different wire width (morphing-compatible)
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
// It is the human-readable companion of Diff: fields reported as removed or
// retyped are what Diff(a, b) counts; added fields are what Diff(b, a)
// counts.
func DiffReport(a, b *pbio.Format) []FieldChange {
	var out []FieldChange
	diffReport(a, b, "", &out)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Path != out[j].Path {
			return out[i].Path < out[j].Path
		}
		return out[i].Kind < out[j].Kind
	})
	return out
}

func diffReport(a, b *pbio.Format, prefix string, out *[]FieldChange) {
	seen := make(map[string]bool, a.NumFields())
	for i := 0; i < a.NumFields(); i++ {
		fa := a.Field(i)
		seen[fa.Name] = true
		path := joinPath(prefix, fa.Name)
		fb := b.FieldByName(fa.Name)
		if fb == nil {
			*out = append(*out, FieldChange{Path: path, Kind: FieldRemoved, From: fieldDesc(fa)})
			continue
		}
		diffFieldReport(fa, fb, path, out)
	}
	for i := 0; i < b.NumFields(); i++ {
		fb := b.Field(i)
		if seen[fb.Name] {
			continue
		}
		*out = append(*out, FieldChange{Path: joinPath(prefix, fb.Name), Kind: FieldAdded, To: fieldDesc(fb)})
	}
}

func diffFieldReport(fa, fb *pbio.Field, path string, out *[]FieldChange) {
	switch {
	case fa.Kind == pbio.Complex && fb.Kind == pbio.Complex:
		diffReport(fa.Sub, fb.Sub, path, out)
	case fa.Kind == pbio.List && fb.Kind == pbio.List:
		diffElemReport(fa.Elem, fb.Elem, path, out)
	case fa.Kind.IsBasic() && fb.Kind.IsBasic() && basicCompatible(fa.Kind, fb.Kind):
		if fa.Kind != fb.Kind || fa.Size != fb.Size {
			*out = append(*out, FieldChange{Path: path, Kind: FieldResized, From: fieldDesc(fa), To: fieldDesc(fb)})
		}
	default:
		*out = append(*out, FieldChange{Path: path, Kind: FieldRetyped, From: fieldDesc(fa), To: fieldDesc(fb)})
	}
}

func diffElemReport(ea, eb *pbio.Field, path string, out *[]FieldChange) {
	switch {
	case ea.Kind == pbio.Complex && eb.Kind == pbio.Complex:
		diffReport(ea.Sub, eb.Sub, path, out)
	case ea.Kind == pbio.List && eb.Kind == pbio.List:
		diffElemReport(ea.Elem, eb.Elem, path, out)
	case ea.Kind.IsBasic() && eb.Kind.IsBasic() && basicCompatible(ea.Kind, eb.Kind):
		if ea.Kind != eb.Kind || ea.Size != eb.Size {
			*out = append(*out, FieldChange{Path: path, Kind: FieldResized,
				From: "list of " + fieldDesc(ea), To: "list of " + fieldDesc(eb)})
		}
	default:
		*out = append(*out, FieldChange{Path: path, Kind: FieldRetyped,
			From: "list of " + fieldDesc(ea), To: "list of " + fieldDesc(eb)})
	}
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
