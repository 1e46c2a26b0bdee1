// Package xslt is the XML/XSLT baseline of the paper's §5: where message
// morphing runs compiled ecode over binary records, the XML world parses
// text into a tree, rewrites the tree through template rules, and traverses
// the result back into a data structure. The relative cost of those two
// pipelines is Figure 10.
//
// It implements the subset of XSLT 1.0 that Figure 10's stylesheet (the
// counterpart of the paper's Figure 5) uses, plus XSLT's built-in template
// rules:
//   - xsl:template, matching "/" or element names joined by "/" (absolute
//     or relative), with XSLT's conflict resolution among them;
//   - literal result elements and their text, xsl:for-each and
//     xsl:value-of;
//   - select expressions: a location path of child steps with element name
//     tests and boolean predicates, such a path "=" a string literal, or
//     count() of a path (xpath.go).
//
// ParseStylesheet refuses any other instruction, pattern or expression with
// ErrStylesheet: a stylesheet outside the subset never yields a partial
// result tree.
package xslt

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/xmlx"
)

// xslNS is the XSLT 1.0 namespace URI.
const xslNS = "http://www.w3.org/1999/XSL/Transform"

// ErrStylesheet is wrapped by stylesheet parse failures, including every
// construct outside the subset; ErrTransform by a result tree without
// exactly one root element.
var (
	ErrStylesheet = errors.New("xslt: invalid stylesheet")
	ErrTransform  = errors.New("xslt: transformation failed")
)

// Stylesheet is a compiled stylesheet: templates with compiled match
// patterns and bodies whose select expressions are compiled too. Compile
// once, apply to many documents.
type Stylesheet struct {
	templates []*template
}

type template struct {
	pattern  pattern
	priority float64
	body     []instr
}

// pattern is a match pattern: element names the node and its ancestors
// must carry, optionally anchored at the root. No steps is the "/" pattern.
type pattern struct {
	steps    []string // innermost last
	absolute bool
}

// instr is one compiled node of a template body.
type instr struct {
	op    opcode
	name  string      // opElement
	attrs []xmlx.Attr // opElement
	text  string      // opText
	sel   expr        // opValueOf, opForEach
	body  []instr     // opElement, opForEach
}

type opcode uint8

const (
	opElement opcode = iota // literal result element
	opText                  // literal text
	opValueOf
	opForEach
)

// ParseStylesheet compiles a stylesheet document.
func ParseStylesheet(data []byte) (*Stylesheet, error) {
	root, err := xmlx.Parse(data)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrStylesheet, err)
	}
	if root.Space != xslNS || (root.Name != "stylesheet" && root.Name != "transform") {
		return nil, fmt.Errorf("%w: root element must be xsl:stylesheet", ErrStylesheet)
	}
	s := &Stylesheet{}
	for _, child := range root.ChildElements() {
		if child.Space != xslNS || child.Name != "template" {
			return nil, fmt.Errorf("%w: unsupported top-level element %s", ErrStylesheet, child.Name)
		}
		match, ok := child.Attrib("match")
		if !ok {
			return nil, fmt.Errorf("%w: template without match attribute", ErrStylesheet)
		}
		pat, prio, err := parsePattern(match)
		if err != nil {
			return nil, err
		}
		body, err := compileBody(child.Children)
		if err != nil {
			return nil, err
		}
		s.templates = append(s.templates, &template{pattern: pat, priority: prio, body: body})
	}
	if len(s.templates) == 0 {
		return nil, fmt.Errorf("%w: no templates", ErrStylesheet)
	}
	return s, nil
}

// compileBody compiles template-body nodes so a transformation never parses
// an expression or meets an instruction it does not implement.
func compileBody(nodes []*xmlx.Node) ([]instr, error) {
	body := make([]instr, 0, len(nodes))
	for _, n := range nodes {
		switch {
		case n.Kind == xmlx.TextNode:
			body = append(body, instr{op: opText, text: n.Text})
		case n.Space != xslNS:
			for _, a := range n.Attrs {
				if strings.ContainsAny(a.Value, "{}") {
					return nil, fmt.Errorf("%w: attribute value template %s=%q", ErrStylesheet, a.Name, a.Value)
				}
			}
			inner, err := compileBody(n.Children)
			if err != nil {
				return nil, err
			}
			body = append(body, instr{op: opElement, name: n.Name, attrs: n.Attrs, body: inner})
		case n.Name == "value-of" || n.Name == "for-each":
			src, ok := n.Attrib("select")
			if !ok {
				return nil, fmt.Errorf("%w: xsl:%s without select", ErrStylesheet, n.Name)
			}
			e, err := compileExpr(src)
			if err != nil {
				return nil, fmt.Errorf("%w: in <xsl:%s select=%q>: %v", ErrStylesheet, n.Name, src, err)
			}
			in := instr{op: opValueOf, sel: e}
			if n.Name == "for-each" {
				if e.count || e.eq {
					return nil, fmt.Errorf("%w: xsl:for-each select %q is not a node-set", ErrStylesheet, src)
				}
				in.op = opForEach
				if in.body, err = compileBody(n.Children); err != nil {
					return nil, err
				}
			}
			body = append(body, in)
		default:
			return nil, fmt.Errorf("%w: unsupported instruction xsl:%s", ErrStylesheet, n.Name)
		}
	}
	return body, nil
}

func parsePattern(src string) (pattern, float64, error) {
	src = strings.TrimSpace(src)
	if src == "/" {
		return pattern{absolute: true}, -0.5, nil
	}
	p := pattern{absolute: strings.HasPrefix(src, "/")}
	for _, part := range strings.Split(strings.TrimPrefix(src, "/"), "/") {
		part = strings.TrimSpace(part)
		if !isName(part) {
			return pattern{}, 0, fmt.Errorf("%w: unsupported match pattern %q", ErrStylesheet, src)
		}
		p.steps = append(p.steps, part)
	}
	prio := 0.0
	if len(p.steps) > 1 || p.absolute {
		prio = 0.5
	}
	return p, prio, nil
}

// matches reports whether the pattern matches node n.
func (p pattern) matches(n *xmlx.Node) bool {
	if len(p.steps) == 0 {
		// "/" pattern: the document root.
		return n.Kind == xmlx.ElementNode && n.Name == "#document"
	}
	cur := n
	for i := len(p.steps) - 1; i >= 0; i-- {
		if cur == nil || cur.Kind != xmlx.ElementNode || cur.Name != p.steps[i] {
			return false
		}
		cur = cur.Parent
	}
	if p.absolute {
		// The step above the first must be the document root.
		return cur != nil && cur.Name == "#document" && cur.Parent == nil
	}
	return true
}

// transform applies the stylesheet to a document and returns the result
// tree's root node (a synthetic #document element).
func (s *Stylesheet) transform(doc *xmlx.Node) *xmlx.Node {
	out := &xmlx.Node{Kind: xmlx.ElementNode, Name: "#document"}
	s.applyTemplates([]*xmlx.Node{xmlx.Document(doc)}, out)
	return out
}

// TransformDocument applies the stylesheet to a document and returns the
// single element root of the result tree.
func (s *Stylesheet) TransformDocument(doc *xmlx.Node) (*xmlx.Node, error) {
	elems := s.transform(doc).ChildElements()
	if len(elems) != 1 {
		return nil, fmt.Errorf("%w: result tree has %d root elements", ErrTransform, len(elems))
	}
	return elems[0], nil
}

// bestTemplate is the matching template of highest priority, the last in
// stylesheet order among equals.
func (s *Stylesheet) bestTemplate(n *xmlx.Node) *template {
	var best *template
	for _, t := range s.templates {
		if t.pattern.matches(n) && (best == nil || t.priority >= best.priority) {
			best = t
		}
	}
	return best
}

func (s *Stylesheet) applyTemplates(nodes []*xmlx.Node, out *xmlx.Node) {
	for _, n := range nodes {
		if t := s.bestTemplate(n); t != nil {
			instantiate(t.body, n, out)
			continue
		}
		// Built-in rules: recurse through elements, copy text.
		switch n.Kind {
		case xmlx.TextNode:
			appendText(out, n.Text)
		case xmlx.ElementNode:
			s.applyTemplates(n.Children, out)
		}
	}
}

// instantiate appends the result of body, evaluated with context node c,
// to out.
func instantiate(body []instr, c *xmlx.Node, out *xmlx.Node) {
	for i := range body {
		in := &body[i]
		switch in.op {
		case opText:
			appendText(out, in.text)
		case opElement:
			el := &xmlx.Node{Kind: xmlx.ElementNode, Name: in.name, Parent: out}
			el.Attrs = append(el.Attrs, in.attrs...)
			out.Children = append(out.Children, el)
			instantiate(in.body, c, el)
		case opValueOf:
			if text := in.sel.stringValue(c); text != "" {
				appendText(out, text)
			}
		case opForEach:
			for _, n := range in.sel.path.selectFrom(c) {
				instantiate(in.body, n, out)
			}
		}
	}
}

func appendText(out *xmlx.Node, text string) {
	out.Children = append(out.Children, &xmlx.Node{Kind: xmlx.TextNode, Text: text, Parent: out})
}
