package ecode

import "fmt"

// parser is a recursive-descent parser with one token of lookahead and
// precedence climbing for binary expressions.
type parser struct {
	lex   *lexer
	tok   token // current token
	depth int   // nesting levels open at the current token
}

// maxNesting bounds how deeply source may nest. The parser, the constant
// folder, the compiler and the compiled closures all recurse once per
// level, and source arrives from the network, so it must not choose how
// deep the Go stack goes. Each statement, expression, prefix operator,
// binary operator and subscript or field selector opens a level: a
// right-nested "x + (x + (...))" takes two per parenthesis.
const maxNesting = 2048

// nest opens one nesting level, failing past maxNesting.
func (p *parser) nest() error {
	p.depth++
	if p.depth > maxNesting {
		return syntaxErrf(p.tok.pos, "nesting deeper than %d levels", maxNesting)
	}
	return nil
}

// leave closes the levels opened since depth was read; parse functions
// defer it on entry.
func (p *parser) leave(depth int) { p.depth = depth }

func newParser(src string) (*parser, error) {
	p := &parser{lex: newLexer(src)}
	return p, p.advance()
}

func (p *parser) advance() error {
	t, err := p.lex.next()
	if err != nil {
		return err
	}
	p.tok = t
	return nil
}

func (p *parser) expect(k tokKind) (token, error) {
	if p.tok.kind != k {
		return token{}, syntaxErrf(p.tok.pos, "expected %v, found %v", k, p.describe())
	}
	t := p.tok
	return t, p.advance()
}

func (p *parser) describe() string {
	switch p.tok.kind {
	case tokIdent:
		return fmt.Sprintf("identifier %q", p.tok.text)
	case tokIntLit, tokFloatLit:
		return fmt.Sprintf("number %s", p.tok.text)
	case tokStringLit:
		return fmt.Sprintf("string %q", p.tok.text)
	default:
		return p.tok.kind.String()
	}
}

// parseProgram parses a sequence of statements and function definitions up
// to EOF. Function definitions are only legal at the top level.
func (p *parser) parseProgram() ([]stmt, error) {
	var stmts []stmt
	for p.tok.kind != tokEOF {
		var (
			s   stmt
			err error
		)
		switch p.tok.kind {
		case tokInt, tokLong, tokDouble, tokChar, tokVoid:
			s, err = p.parseDeclOrFunc(true)
		default:
			s, err = p.parseStmt()
		}
		if err != nil {
			return nil, err
		}
		stmts = append(stmts, s)
	}
	return stmts, nil
}

func (p *parser) parseStmt() (stmt, error) {
	defer p.leave(p.depth)
	if err := p.nest(); err != nil {
		return nil, err
	}
	switch p.tok.kind {
	case tokInt, tokLong, tokDouble, tokChar:
		return p.parseDeclOrFunc(false)
	case tokVoid:
		return nil, syntaxErrf(p.tok.pos, "'void' is only valid as a function return type at the top level")
	case tokIf:
		return p.parseIf()
	case tokFor:
		return p.parseFor()
	case tokWhile:
		return p.parseWhile()
	case tokDo:
		return p.parseDoWhile()
	case tokSwitch:
		return p.parseSwitch()
	case tokLBrace:
		return p.parseBlock()
	case tokBreak:
		pos := p.tok.pos
		if err := p.advance(); err != nil {
			return nil, err
		}
		if _, err := p.expect(tokSemi); err != nil {
			return nil, err
		}
		return &breakStmt{pos: pos}, nil
	case tokContinue:
		pos := p.tok.pos
		if err := p.advance(); err != nil {
			return nil, err
		}
		if _, err := p.expect(tokSemi); err != nil {
			return nil, err
		}
		return &continueStmt{pos: pos}, nil
	case tokReturn:
		pos := p.tok.pos
		if err := p.advance(); err != nil {
			return nil, err
		}
		var val expr
		if p.tok.kind != tokSemi {
			var err error
			if val, err = p.parseExpr(); err != nil {
				return nil, err
			}
		}
		if _, err := p.expect(tokSemi); err != nil {
			return nil, err
		}
		return &returnStmt{pos: pos, val: val}, nil
	case tokSemi:
		pos := p.tok.pos
		if err := p.advance(); err != nil {
			return nil, err
		}
		return &blockStmt{pos: pos}, nil
	default:
		s, err := p.parseSimpleStmt()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokSemi); err != nil {
			return nil, err
		}
		return s, nil
	}
}

// parseDeclOrFunc parses "int a, b = 0;" / "double x;" / "char *s = ...;"
// and, when allowFunc is set (top level only), function definitions like
// "int f(int a) { ... }".
func (p *parser) parseDeclOrFunc(allowFunc bool) (stmt, error) {
	pos := p.tok.pos
	var dt declType
	switch p.tok.kind {
	case tokInt, tokLong:
		dt = declInt
	case tokDouble:
		dt = declDouble
	case tokChar:
		dt = declString // "char" locals only exist as "char *"
	case tokVoid:
		dt = declVoid
	}
	isChar := p.tok.kind == tokChar
	isVoid := p.tok.kind == tokVoid
	if err := p.advance(); err != nil {
		return nil, err
	}
	if isChar {
		if p.tok.kind != tokStar {
			return nil, syntaxErrf(p.tok.pos, "only 'char *' (string) locals are supported")
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
	}
	first, err := p.expect(tokIdent)
	if err != nil {
		return nil, err
	}
	if p.tok.kind == tokLParen {
		if !allowFunc {
			return nil, syntaxErrf(first.pos, "function definitions are only allowed at the top level")
		}
		return p.parseFuncRest(pos, dt, first.text)
	}
	if isVoid {
		return nil, syntaxErrf(first.pos, "variables cannot have type void")
	}

	d := &declStmt{pos: pos, typ: dt}
	// The first declarator's name was already consumed; loop handles its
	// initializer and any further comma-separated declarators.
	pending := &first
	for {
		var name token
		if pending != nil {
			name, pending = *pending, nil
		} else {
			if name, err = p.expect(tokIdent); err != nil {
				return nil, err
			}
		}
		item := declItem{pos: name.pos, name: name.text}
		if p.tok.kind == tokAssign {
			if err := p.advance(); err != nil {
				return nil, err
			}
			if item.init, err = p.parseExpr(); err != nil {
				return nil, err
			}
		}
		d.items = append(d.items, item)
		if p.tok.kind != tokComma {
			break
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
		// Allow "char *a, *b".
		if isChar && p.tok.kind == tokStar {
			if err := p.advance(); err != nil {
				return nil, err
			}
		}
	}
	if _, err := p.expect(tokSemi); err != nil {
		return nil, err
	}
	return d, nil
}

// parseFuncRest parses a function definition after "type name(" has been
// recognized (the '(' is the current token).
func (p *parser) parseFuncRest(pos Pos, ret declType, name string) (stmt, error) {
	if err := p.advance(); err != nil { // consume '('
		return nil, err
	}
	fn := &funcDecl{pos: pos, ret: ret, name: name}
	for p.tok.kind != tokRParen {
		var pt declType
		switch p.tok.kind {
		case tokInt, tokLong:
			pt = declInt
		case tokDouble:
			pt = declDouble
		case tokChar:
			pt = declString
		default:
			return nil, syntaxErrf(p.tok.pos, "expected parameter type, found %v", p.describe())
		}
		isChar := p.tok.kind == tokChar
		if err := p.advance(); err != nil {
			return nil, err
		}
		if isChar {
			if p.tok.kind != tokStar {
				return nil, syntaxErrf(p.tok.pos, "only 'char *' (string) parameters are supported")
			}
			if err := p.advance(); err != nil {
				return nil, err
			}
		}
		pname, err := p.expect(tokIdent)
		if err != nil {
			return nil, err
		}
		fn.params = append(fn.params, paramDecl{pos: pname.pos, typ: pt, name: pname.text})
		if p.tok.kind != tokComma {
			break
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
	}
	if _, err := p.expect(tokRParen); err != nil {
		return nil, err
	}
	if p.tok.kind != tokLBrace {
		return nil, syntaxErrf(p.tok.pos, "expected function body, found %v", p.describe())
	}
	body, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	fn.body = body.(*blockStmt)
	return fn, nil
}

func (p *parser) parseIf() (stmt, error) {
	pos := p.tok.pos
	if err := p.advance(); err != nil {
		return nil, err
	}
	if _, err := p.expect(tokLParen); err != nil {
		return nil, err
	}
	cond, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokRParen); err != nil {
		return nil, err
	}
	then, err := p.parseStmt()
	if err != nil {
		return nil, err
	}
	var els stmt
	if p.tok.kind == tokElse {
		if err := p.advance(); err != nil {
			return nil, err
		}
		if els, err = p.parseStmt(); err != nil {
			return nil, err
		}
	}
	return &ifStmt{pos: pos, cond: cond, then: then, els: els}, nil
}

func (p *parser) parseFor() (stmt, error) {
	pos := p.tok.pos
	if err := p.advance(); err != nil {
		return nil, err
	}
	if _, err := p.expect(tokLParen); err != nil {
		return nil, err
	}
	var (
		init, post stmt
		cond       expr
		err        error
	)
	if p.tok.kind != tokSemi {
		switch p.tok.kind {
		case tokInt, tokLong, tokDouble, tokChar:
			return nil, syntaxErrf(p.tok.pos, "declarations are not allowed in a for-init clause; declare before the loop")
		}
		if init, err = p.parseSimpleStmt(); err != nil {
			return nil, err
		}
	}
	if _, err := p.expect(tokSemi); err != nil {
		return nil, err
	}
	if p.tok.kind != tokSemi {
		if cond, err = p.parseExpr(); err != nil {
			return nil, err
		}
	}
	if _, err := p.expect(tokSemi); err != nil {
		return nil, err
	}
	if p.tok.kind != tokRParen {
		if post, err = p.parseSimpleStmt(); err != nil {
			return nil, err
		}
	}
	if _, err := p.expect(tokRParen); err != nil {
		return nil, err
	}
	body, err := p.parseStmt()
	if err != nil {
		return nil, err
	}
	return &forStmt{pos: pos, init: init, cond: cond, post: post, body: body}, nil
}

func (p *parser) parseWhile() (stmt, error) {
	pos := p.tok.pos
	if err := p.advance(); err != nil {
		return nil, err
	}
	if _, err := p.expect(tokLParen); err != nil {
		return nil, err
	}
	cond, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokRParen); err != nil {
		return nil, err
	}
	body, err := p.parseStmt()
	if err != nil {
		return nil, err
	}
	return &whileStmt{pos: pos, cond: cond, body: body}, nil
}

func (p *parser) parseDoWhile() (stmt, error) {
	pos := p.tok.pos
	if err := p.advance(); err != nil {
		return nil, err
	}
	body, err := p.parseStmt()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokWhile); err != nil {
		return nil, err
	}
	if _, err := p.expect(tokLParen); err != nil {
		return nil, err
	}
	cond, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokRParen); err != nil {
		return nil, err
	}
	if _, err := p.expect(tokSemi); err != nil {
		return nil, err
	}
	return &doWhileStmt{pos: pos, body: body, cond: cond}, nil
}

func (p *parser) parseSwitch() (stmt, error) {
	pos := p.tok.pos
	if err := p.advance(); err != nil {
		return nil, err
	}
	if _, err := p.expect(tokLParen); err != nil {
		return nil, err
	}
	cond, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokRParen); err != nil {
		return nil, err
	}
	if _, err := p.expect(tokLBrace); err != nil {
		return nil, err
	}
	s := &switchStmt{pos: pos, cond: cond}
	sawDefault := false
	for p.tok.kind != tokRBrace {
		var c switchCase
		c.pos = p.tok.pos
		switch p.tok.kind {
		case tokCase:
			if err := p.advance(); err != nil {
				return nil, err
			}
			if c.val, err = p.parseExpr(); err != nil {
				return nil, err
			}
		case tokDefault:
			if sawDefault {
				return nil, syntaxErrf(p.tok.pos, "multiple default labels in switch")
			}
			sawDefault = true
			c.isDefault = true
			if err := p.advance(); err != nil {
				return nil, err
			}
		default:
			return nil, syntaxErrf(p.tok.pos, "expected 'case' or 'default', found %v", p.describe())
		}
		if _, err := p.expect(tokColon); err != nil {
			return nil, err
		}
		for p.tok.kind != tokCase && p.tok.kind != tokDefault && p.tok.kind != tokRBrace {
			body, err := p.parseStmt()
			if err != nil {
				return nil, err
			}
			c.body = append(c.body, body)
		}
		s.cases = append(s.cases, c)
	}
	if err := p.advance(); err != nil { // consume '}'
		return nil, err
	}
	return s, nil
}

func (p *parser) parseBlock() (stmt, error) {
	pos := p.tok.pos
	if err := p.advance(); err != nil {
		return nil, err
	}
	var stmts []stmt
	for p.tok.kind != tokRBrace {
		if p.tok.kind == tokEOF {
			return nil, syntaxErrf(pos, "unterminated block")
		}
		s, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		stmts = append(stmts, s)
	}
	if err := p.advance(); err != nil {
		return nil, err
	}
	return &blockStmt{pos: pos, stmts: stmts}, nil
}

// parseSimpleStmt parses assignment, ++/--, or a bare expression — the forms
// legal in for-clauses and as expression statements.
func (p *parser) parseSimpleStmt() (stmt, error) {
	pos := p.tok.pos
	// Prefix ++x / --x.
	if p.tok.kind == tokPlusPlus || p.tok.kind == tokMinusMin {
		op := tokPlusEq
		if p.tok.kind == tokMinusMin {
			op = tokMinusEq
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
		lhs, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &assignStmt{pos: pos, lhs: lhs, op: op, rhs: &intLit{pos: pos, v: 1}}, nil
	}
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	switch p.tok.kind {
	case tokAssign, tokPlusEq, tokMinusEq, tokStarEq, tokSlashEq, tokPercentEq:
		op := p.tok.kind
		if err := p.advance(); err != nil {
			return nil, err
		}
		rhs, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		return &assignStmt{pos: pos, lhs: e, op: op, rhs: rhs}, nil
	case tokPlusPlus, tokMinusMin:
		op := tokPlusEq
		if p.tok.kind == tokMinusMin {
			op = tokMinusEq
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
		return &assignStmt{pos: pos, lhs: e, op: op, rhs: &intLit{pos: pos, v: 1}}, nil
	default:
		return &exprStmt{pos: pos, e: e}, nil
	}
}

// Binary operator precedence, C-style. Higher binds tighter.
func precedence(k tokKind) int {
	switch k {
	case tokOrOr:
		return 1
	case tokAndAnd:
		return 2
	case tokEq, tokNeq:
		return 3
	case tokLt, tokGt, tokLe, tokGe:
		return 4
	case tokPlus, tokMinus:
		return 5
	case tokStar, tokSlash, tokPercent:
		return 6
	default:
		return 0
	}
}

func (p *parser) parseExpr() (expr, error) {
	return p.parseTernary()
}

func (p *parser) parseTernary() (expr, error) {
	defer p.leave(p.depth)
	if err := p.nest(); err != nil {
		return nil, err
	}
	cond, err := p.parseBinary(1)
	if err != nil {
		return nil, err
	}
	if p.tok.kind != tokQuestion {
		return cond, nil
	}
	pos := p.tok.pos
	if err := p.advance(); err != nil {
		return nil, err
	}
	t, err := p.parseTernary()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokColon); err != nil {
		return nil, err
	}
	f, err := p.parseTernary()
	if err != nil {
		return nil, err
	}
	return &condExpr{pos: pos, cond: cond, t: t, f: f}, nil
}

func (p *parser) parseBinary(minPrec int) (expr, error) {
	lhs, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	defer p.leave(p.depth)
	for {
		prec := precedence(p.tok.kind)
		if prec < minPrec {
			return lhs, nil
		}
		op := p.tok.kind
		pos := p.tok.pos
		if err := p.nest(); err != nil {
			return nil, err
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
		rhs, err := p.parseBinary(prec + 1)
		if err != nil {
			return nil, err
		}
		lhs = &binaryExpr{pos: pos, op: op, l: lhs, r: rhs}
	}
}

func (p *parser) parseUnary() (expr, error) {
	op, pos := p.tok.kind, p.tok.pos
	if op != tokMinus && op != tokNot && op != tokPlus {
		return p.parsePostfix()
	}
	defer p.leave(p.depth)
	if err := p.nest(); err != nil {
		return nil, err
	}
	if err := p.advance(); err != nil {
		return nil, err
	}
	x, err := p.parseUnary()
	if err != nil || op == tokPlus {
		return x, err
	}
	return &unaryExpr{pos: pos, op: op, x: x}, nil
}

func (p *parser) parsePostfix() (expr, error) {
	e, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	defer p.leave(p.depth)
	for {
		if k := p.tok.kind; k == tokDot || k == tokLBracket {
			if err := p.nest(); err != nil {
				return nil, err
			}
		}
		switch p.tok.kind {
		case tokDot:
			pos := p.tok.pos
			if err := p.advance(); err != nil {
				return nil, err
			}
			name, err := p.expect(tokIdent)
			if err != nil {
				return nil, err
			}
			e = &fieldExpr{pos: pos, base: e, name: name.text}
		case tokLBracket:
			pos := p.tok.pos
			if err := p.advance(); err != nil {
				return nil, err
			}
			idx, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(tokRBracket); err != nil {
				return nil, err
			}
			e = &indexExpr{pos: pos, base: e, idx: idx}
		default:
			return e, nil
		}
	}
}

func (p *parser) parsePrimary() (expr, error) {
	switch p.tok.kind {
	case tokIntLit, tokCharLit:
		e := &intLit{pos: p.tok.pos, v: p.tok.ival}
		return e, p.advance()
	case tokFloatLit:
		e := &floatLit{pos: p.tok.pos, v: p.tok.fval}
		return e, p.advance()
	case tokStringLit:
		e := &strLit{pos: p.tok.pos, v: p.tok.text}
		return e, p.advance()
	case tokIdent:
		name := p.tok.text
		pos := p.tok.pos
		if err := p.advance(); err != nil {
			return nil, err
		}
		if p.tok.kind != tokLParen {
			return &identExpr{pos: pos, name: name}, nil
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
		var args []expr
		for p.tok.kind != tokRParen {
			a, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			args = append(args, a)
			if p.tok.kind != tokComma {
				break
			}
			if err := p.advance(); err != nil {
				return nil, err
			}
		}
		if _, err := p.expect(tokRParen); err != nil {
			return nil, err
		}
		return &callExpr{pos: pos, name: name, args: args}, nil
	case tokLParen:
		if err := p.advance(); err != nil {
			return nil, err
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokRParen); err != nil {
			return nil, err
		}
		return e, nil
	default:
		return nil, syntaxErrf(p.tok.pos, "expected expression, found %v", p.describe())
	}
}
