// Package xmlx is the XML side of the paper's evaluation: it encodes PBIO
// records as XML text (the way the paper's benchmark does, with sprintf-style
// data-to-string conversion and appended begin/end tags), parses XML into a
// DOM, and binds a DOM tree back into a typed record ("traversing the tree
// to form a data structure block").
//
// Together with package xslt it forms the XML/XSLT baseline against which
// message morphing is compared in Figures 8, 9 and 10 and Table 1.
package xmlx

import (
	"bytes"
	"encoding/xml"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/pbio"
)

// NodeKind distinguishes element and text nodes.
type NodeKind uint8

// DOM node kinds.
const (
	ElementNode NodeKind = iota
	TextNode
)

// Attr is one attribute of an element node.
type Attr struct {
	Name  string
	Value string
}

// Node is a DOM node: either an element (Name, Attrs, Children) or a text
// node (Text).
type Node struct {
	Kind     NodeKind
	Name     string // local name for elements
	Space    string // resolved namespace URI, if any
	Attrs    []Attr
	Text     string // text nodes
	Children []*Node
	Parent   *Node
}

// ChildElements returns the element children of n.
func (n *Node) ChildElements() []*Node {
	out := make([]*Node, 0, len(n.Children))
	for _, c := range n.Children {
		if c.Kind == ElementNode {
			out = append(out, c)
		}
	}
	return out
}

// Child returns the first child element with the given local name, or nil.
func (n *Node) Child(name string) *Node {
	for _, c := range n.Children {
		if c.Kind == ElementNode && c.Name == name {
			return c
		}
	}
	return nil
}

// Attrib returns the value of the named attribute and whether it exists.
func (n *Node) Attrib(name string) (string, bool) {
	for _, a := range n.Attrs {
		if a.Name == name {
			return a.Value, true
		}
	}
	return "", false
}

// TextContent concatenates all descendant text, the XPath string-value of an
// element.
func (n *Node) TextContent() string {
	if n.Kind == TextNode {
		return n.Text
	}
	var b strings.Builder
	var walk func(*Node)
	walk = func(m *Node) {
		if m.Kind == TextNode {
			b.WriteString(m.Text)
			return
		}
		for _, c := range m.Children {
			walk(c)
		}
	}
	walk(n)
	return b.String()
}

// ErrBadXML is wrapped by parse failures.
var ErrBadXML = errors.New("xmlx: malformed document")

// Parse builds a DOM from an XML document. Whitespace-only text between
// elements is dropped (the stylesheets and messages here never use mixed
// content).
func Parse(data []byte) (*Node, error) {
	dec := xml.NewDecoder(bytes.NewReader(data))
	root := &Node{Kind: ElementNode, Name: "#document"}
	cur := root
	for {
		tok, err := dec.Token()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadXML, err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			n := &Node{Kind: ElementNode, Name: t.Name.Local, Space: t.Name.Space, Parent: cur}
			for _, a := range t.Attr {
				if a.Name.Space == "xmlns" || a.Name.Local == "xmlns" {
					continue
				}
				n.Attrs = append(n.Attrs, Attr{Name: a.Name.Local, Value: a.Value})
			}
			cur.Children = append(cur.Children, n)
			cur = n
		case xml.EndElement:
			if cur.Parent == nil {
				return nil, fmt.Errorf("%w: unbalanced end element", ErrBadXML)
			}
			cur = cur.Parent
		case xml.CharData:
			text := string(t)
			if strings.TrimSpace(text) == "" {
				continue
			}
			cur.Children = append(cur.Children, &Node{Kind: TextNode, Text: text, Parent: cur})
		}
	}
	if cur != root {
		return nil, fmt.Errorf("%w: unclosed element %q", ErrBadXML, cur.Name)
	}
	elems := root.ChildElements()
	if len(elems) != 1 {
		return nil, fmt.Errorf("%w: document must have exactly one root element, found %d", ErrBadXML, len(elems))
	}
	doc := elems[0]
	return doc, nil
}

// Document returns a synthetic "/" root wrapping n, for XPath evaluation
// from the document root.
func Document(n *Node) *Node {
	if n.Parent != nil && n.Parent.Name == "#document" {
		return n.Parent
	}
	doc := &Node{Kind: ElementNode, Name: "#document", Children: []*Node{n}}
	n.Parent = doc
	return doc
}

// --- record → XML encoding ---

// Encode renders rec as an XML document, one element per field; list fields
// become wrapper elements with one child element per entry (named after the
// element's sub-format, or <item> for basic elements). This mirrors the
// paper's measured encoder: binary-to-string conversion plus element
// begin/end blocks appended into one output buffer.
func Encode(rec *pbio.Record) []byte {
	return Append(nil, rec)
}

// Append appends the XML encoding of rec to dst.
func Append(dst []byte, rec *pbio.Record) []byte {
	return appendRecord(dst, rec, rec.Format().Name())
}

func appendRecord(dst []byte, rec *pbio.Record, tag string) []byte {
	dst = appendOpen(dst, tag)
	f := rec.Format()
	for i := 0; i < f.NumFields(); i++ {
		dst = appendField(dst, f.Field(i), rec.GetIndex(i))
	}
	return appendClose(dst, tag)
}

func appendField(dst []byte, fld *pbio.Field, v pbio.Value) []byte {
	switch fld.Kind {
	case pbio.Complex:
		dst = appendOpen(dst, fld.Name)
		if r := v.Record(); r != nil {
			dst = appendRecord(dst, r, r.Format().Name())
		}
		return appendClose(dst, fld.Name)
	case pbio.List:
		dst = appendOpen(dst, fld.Name)
		for _, e := range v.List() {
			dst = appendElem(dst, fld.Elem, e)
		}
		return appendClose(dst, fld.Name)
	default:
		dst = appendOpen(dst, fld.Name)
		dst = appendScalar(dst, fld, v)
		return appendClose(dst, fld.Name)
	}
}

func appendElem(dst []byte, elem *pbio.Field, v pbio.Value) []byte {
	switch elem.Kind {
	case pbio.Complex:
		if r := v.Record(); r != nil {
			return appendRecord(dst, r, r.Format().Name())
		}
		return dst
	default:
		dst = appendOpen(dst, "item")
		dst = appendScalar(dst, elem, v)
		return appendClose(dst, "item")
	}
}

func appendScalar(dst []byte, fld *pbio.Field, v pbio.Value) []byte {
	switch fld.Kind {
	case pbio.Integer, pbio.Char, pbio.Enum:
		return strconv.AppendInt(dst, v.Int64(), 10)
	case pbio.Unsigned:
		return strconv.AppendUint(dst, v.Uint64(), 10)
	case pbio.Float:
		return strconv.AppendFloat(dst, v.Float64(), 'g', -1, 64)
	case pbio.Boolean:
		if v.Bool() {
			return append(dst, "true"...)
		}
		return append(dst, "false"...)
	case pbio.String:
		return appendEscaped(dst, v.Strval())
	default:
		return dst
	}
}

func appendOpen(dst []byte, tag string) []byte {
	dst = append(dst, '<')
	dst = append(dst, tag...)
	return append(dst, '>')
}

func appendClose(dst []byte, tag string) []byte {
	dst = append(dst, '<', '/')
	dst = append(dst, tag...)
	return append(dst, '>')
}

func appendEscaped(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '<':
			dst = append(dst, "&lt;"...)
		case '>':
			dst = append(dst, "&gt;"...)
		case '&':
			dst = append(dst, "&amp;"...)
		default:
			dst = append(dst, s[i])
		}
	}
	return dst
}

// Render serializes a DOM (e.g. an XSLT result tree) back to XML text.
func Render(n *Node) []byte {
	return renderNode(nil, n)
}

func renderNode(dst []byte, n *Node) []byte {
	if n.Kind == TextNode {
		return appendEscaped(dst, n.Text)
	}
	if n.Name == "#document" {
		for _, c := range n.Children {
			dst = renderNode(dst, c)
		}
		return dst
	}
	dst = append(dst, '<')
	dst = append(dst, n.Name...)
	for _, a := range n.Attrs {
		dst = append(dst, ' ')
		dst = append(dst, a.Name...)
		dst = append(dst, '=', '"')
		dst = appendEscaped(dst, a.Value)
		dst = append(dst, '"')
	}
	dst = append(dst, '>')
	for _, c := range n.Children {
		dst = renderNode(dst, c)
	}
	return appendClose(dst, n.Name)
}

// --- DOM → record binding ---

// Bind walks an XML tree into a record of the given format, the third step
// of the paper's XML/XSL decode pipeline. Element order is irrelevant;
// fields are matched by name. Missing fields keep zero values; unknown
// elements are ignored (XML's plug-and-play tolerance).
func Bind(n *Node, f *pbio.Format) (*pbio.Record, error) {
	rec := pbio.NewRecord(f)
	for i := 0; i < f.NumFields(); i++ {
		fld := f.Field(i)
		child := n.Child(fld.Name)
		if child == nil {
			continue
		}
		v, err := bindField(child, fld)
		if err != nil {
			return nil, fmt.Errorf("xmlx: field %q: %w", fld.Name, err)
		}
		if err := rec.SetIndex(i, v); err != nil {
			return nil, err
		}
	}
	return rec, nil
}

func bindField(n *Node, fld *pbio.Field) (pbio.Value, error) {
	switch fld.Kind {
	case pbio.Complex:
		inner := n.ChildElements()
		if len(inner) == 1 && inner[0].Name == fld.Sub.Name() {
			sub, err := Bind(inner[0], fld.Sub)
			if err != nil {
				return pbio.Value{}, err
			}
			return pbio.RecordOf(sub), nil
		}
		// Inline representation (fields directly under the field element).
		sub, err := Bind(n, fld.Sub)
		if err != nil {
			return pbio.Value{}, err
		}
		return pbio.RecordOf(sub), nil
	case pbio.List:
		kids := n.ChildElements()
		elems := make([]pbio.Value, 0, len(kids))
		for _, k := range kids {
			v, err := bindElem(k, fld.Elem)
			if err != nil {
				return pbio.Value{}, err
			}
			elems = append(elems, v)
		}
		return pbio.ListOf(elems), nil
	default:
		return bindScalar(n.TextContent(), fld)
	}
}

func bindElem(n *Node, elem *pbio.Field) (pbio.Value, error) {
	if elem.Kind == pbio.Complex {
		sub, err := Bind(n, elem.Sub)
		if err != nil {
			return pbio.Value{}, err
		}
		return pbio.RecordOf(sub), nil
	}
	return bindScalar(n.TextContent(), elem)
}

func bindScalar(text string, fld *pbio.Field) (pbio.Value, error) {
	switch fld.Kind {
	case pbio.Integer, pbio.Char, pbio.Enum:
		n, err := strconv.ParseInt(strings.TrimSpace(text), 10, 64)
		if err != nil {
			return pbio.Value{}, fmt.Errorf("bad integer %q", text)
		}
		return pbio.Int(n), nil
	case pbio.Unsigned:
		n, err := strconv.ParseUint(strings.TrimSpace(text), 10, 64)
		if err != nil {
			return pbio.Value{}, fmt.Errorf("bad unsigned %q", text)
		}
		return pbio.Uint(n), nil
	case pbio.Float:
		x, err := strconv.ParseFloat(strings.TrimSpace(text), 64)
		if err != nil {
			return pbio.Value{}, fmt.Errorf("bad float %q", text)
		}
		return pbio.Float64(x), nil
	case pbio.Boolean:
		switch strings.TrimSpace(text) {
		case "true", "1":
			return pbio.Bool(true), nil
		case "false", "0", "":
			return pbio.Bool(false), nil
		default:
			return pbio.Value{}, fmt.Errorf("bad boolean %q", text)
		}
	case pbio.String:
		return pbio.Str(text), nil
	default:
		return pbio.Value{}, fmt.Errorf("cannot bind kind %v", fld.Kind)
	}
}

// Decode is the full XML decode path used in Figure 9: parse the document
// into a tree, then bind the tree into a record.
func Decode(data []byte, f *pbio.Format) (*pbio.Record, error) {
	doc, err := Parse(data)
	if err != nil {
		return nil, err
	}
	if doc.Name != f.Name() {
		return nil, fmt.Errorf("%w: root element %q does not match format %q", ErrBadXML, doc.Name, f.Name())
	}
	return Bind(doc, f)
}
