package xslt

import (
	"errors"
	"fmt"
	"strconv"

	"repro/internal/xmlx"
)

// expr is a compiled select expression. The grammar is
//
//	Expr := "count(" Path ")" | Path [ "=" Literal ]
//	Path := [ "/" ] Step { "/" Step }
//	Step := Name { "[" Path [ "=" Literal ] "]" }
//
// A step selects the child elements of that name. A predicate keeps the
// nodes for which its path selects something or, with "=", selects a node
// whose string-value is the literal (XPath's existential comparison).
type expr struct {
	path  path
	count bool // count(path): a number
	eq    bool // path = lit: a boolean
	lit   string
}

type path struct {
	absolute bool
	steps    []step
}

type step struct {
	name  string
	preds []expr // never count(): a number predicate would be positional
}

// selectFrom evaluates the path with n as the context node.
func (p *path) selectFrom(n *xmlx.Node) []*xmlx.Node {
	if p.absolute {
		for n.Parent != nil {
			n = n.Parent
		}
	}
	cur := []*xmlx.Node{n}
	for _, st := range p.steps {
		var selected []*xmlx.Node
		for _, m := range cur {
			for _, ch := range m.Children {
				if ch.Kind == xmlx.ElementNode && ch.Name == st.name {
					selected = append(selected, ch)
				}
			}
		}
		for i := range st.preds {
			var kept []*xmlx.Node
			for _, m := range selected {
				if st.preds[i].test(m) {
					kept = append(kept, m)
				}
			}
			selected = kept
		}
		cur = selected
	}
	return cur
}

// test is the boolean value of a path or path = lit expression.
func (e *expr) test(n *xmlx.Node) bool {
	nodes := e.path.selectFrom(n)
	if !e.eq {
		return len(nodes) > 0
	}
	for _, m := range nodes {
		if m.TextContent() == e.lit {
			return true
		}
	}
	return false
}

// stringValue is the expression's XPath string() value.
func (e *expr) stringValue(n *xmlx.Node) string {
	switch {
	case e.count:
		return strconv.Itoa(len(e.path.selectFrom(n)))
	case e.eq:
		return strconv.FormatBool(e.test(n))
	}
	nodes := e.path.selectFrom(n)
	if len(nodes) == 0 {
		return ""
	}
	return nodes[0].TextContent()
}

// --- parser ---

// compileExpr parses a select expression; anything outside the grammar is
// an error.
func compileExpr(src string) (expr, error) {
	p := &xparser{src: src}
	e, err := p.parseExpr()
	if err != nil {
		return expr{}, err
	}
	p.skipWS()
	if p.pos != len(p.src) {
		return expr{}, fmt.Errorf("unsupported %q", p.src[p.pos:])
	}
	return e, nil
}

type xparser struct {
	src string
	pos int
}

func (p *xparser) skipWS() {
	for p.pos < len(p.src) && (p.src[p.pos] == ' ' || p.src[p.pos] == '\t' || p.src[p.pos] == '\n' || p.src[p.pos] == '\r') {
		p.pos++
	}
}

func (p *xparser) peek() byte {
	if p.pos >= len(p.src) {
		return 0
	}
	return p.src[p.pos]
}

func (p *xparser) expect(c byte) error {
	p.skipWS()
	if p.peek() != c {
		return fmt.Errorf("expected %q at %q", c, p.src[p.pos:])
	}
	p.pos++
	return nil
}

// word returns the run of name bytes starting at pos without consuming it.
func (p *xparser) word() string {
	i := p.pos
	for i < len(p.src) && isNameByte(p.src[i]) {
		i++
	}
	return p.src[p.pos:i]
}

func isNameByte(c byte) bool {
	return c == '_' || c == '-' || c == '.' ||
		(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
}

// isName reports whether s is an element name: name bytes, not starting
// with a digit, '-' or '.' (so ".", ".." and numbers are not names).
func isName(s string) bool {
	if s == "" || s[0] == '-' || s[0] == '.' || (s[0] >= '0' && s[0] <= '9') {
		return false
	}
	for i := 0; i < len(s); i++ {
		if !isNameByte(s[i]) {
			return false
		}
	}
	return true
}

func (p *xparser) parseExpr() (expr, error) {
	p.skipWS()
	if w := p.word(); w != "" {
		save := p.pos
		p.pos += len(w)
		p.skipWS()
		if p.peek() == '(' {
			if w != "count" {
				return expr{}, fmt.Errorf("unsupported function %s()", w)
			}
			p.pos++
			pa, err := p.parsePath()
			if err != nil {
				return expr{}, err
			}
			return expr{path: pa, count: true}, p.expect(')')
		}
		p.pos = save
	}
	pa, err := p.parsePath()
	if err != nil {
		return expr{}, err
	}
	e := expr{path: pa}
	p.skipWS()
	if p.peek() != '=' {
		return e, nil
	}
	p.pos++
	p.skipWS()
	quote := p.peek()
	if quote != '\'' && quote != '"' {
		return expr{}, fmt.Errorf("'=' needs a string literal, found %q", p.src[p.pos:])
	}
	p.pos++
	start := p.pos
	for p.pos < len(p.src) && p.src[p.pos] != quote {
		p.pos++
	}
	if p.pos == len(p.src) {
		return expr{}, errors.New("unterminated literal")
	}
	e.eq, e.lit = true, p.src[start:p.pos]
	p.pos++
	return e, nil
}

func (p *xparser) parsePath() (path, error) {
	p.skipWS()
	var pa path
	if p.peek() == '/' {
		pa.absolute = true
		p.pos++
	}
	for {
		p.skipWS()
		name := p.word()
		if !isName(name) {
			return path{}, fmt.Errorf("expected an element name at %q", p.src[p.pos:])
		}
		p.pos += len(name)
		st := step{name: name}
		for p.skipWS(); p.peek() == '['; p.skipWS() {
			p.pos++
			pred, err := p.parseExpr()
			if err != nil {
				return path{}, err
			}
			if pred.count {
				return path{}, errors.New("positional predicate")
			}
			if err := p.expect(']'); err != nil {
				return path{}, err
			}
			st.preds = append(st.preds, pred)
		}
		pa.steps = append(pa.steps, st)
		if p.peek() != '/' {
			return pa, nil
		}
		p.pos++
	}
}
