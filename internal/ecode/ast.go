package ecode

// Abstract syntax. The parser produces this tree; the compiler walks it once
// to build closures.

type stmt interface{ stmtPos() Pos }

type (
	// declStmt is a C declaration: "int i, j = 0;".
	declStmt struct {
		pos   Pos
		typ   declType
		items []declItem
	}

	declItem struct {
		pos  Pos
		name string
		init expr // may be nil
	}

	exprStmt struct {
		pos Pos
		e   expr
	}

	// assignStmt covers "=", the compound assignments and "++/--" (which
	// are desugared by the parser into "+= 1" / "-= 1").
	assignStmt struct {
		pos Pos
		lhs expr
		op  tokKind // tokAssign, tokPlusEq, ...
		rhs expr
	}

	ifStmt struct {
		pos  Pos
		cond expr
		then stmt
		els  stmt // may be nil
	}

	forStmt struct {
		pos  Pos
		init stmt // may be nil
		cond expr // may be nil (infinite)
		post stmt // may be nil
		body stmt
	}

	whileStmt struct {
		pos  Pos
		cond expr
		body stmt
	}

	blockStmt struct {
		pos   Pos
		stmts []stmt
	}

	// doWhileStmt is C's "do body while (cond);".
	doWhileStmt struct {
		pos  Pos
		body stmt
		cond expr
	}

	// switchStmt is C's switch with fallthrough semantics. Case labels must
	// be integer constant expressions.
	switchStmt struct {
		pos   Pos
		cond  expr
		cases []switchCase
	}

	breakStmt    struct{ pos Pos }
	continueStmt struct{ pos Pos }

	returnStmt struct {
		pos Pos
		val expr // may be nil
	}
)

// switchCase is one "case N: stmts" arm (isDefault for "default:"). Bodies
// fall through to the next arm unless they break, as in C.
type switchCase struct {
	pos       Pos
	val       expr // nil for default
	isDefault bool
	body      []stmt
}

func (s *doWhileStmt) stmtPos() Pos { return s.pos }
func (s *switchStmt) stmtPos() Pos  { return s.pos }

func (s *declStmt) stmtPos() Pos     { return s.pos }
func (s *exprStmt) stmtPos() Pos     { return s.pos }
func (s *assignStmt) stmtPos() Pos   { return s.pos }
func (s *ifStmt) stmtPos() Pos       { return s.pos }
func (s *forStmt) stmtPos() Pos      { return s.pos }
func (s *whileStmt) stmtPos() Pos    { return s.pos }
func (s *blockStmt) stmtPos() Pos    { return s.pos }
func (s *breakStmt) stmtPos() Pos    { return s.pos }
func (s *continueStmt) stmtPos() Pos { return s.pos }
func (s *returnStmt) stmtPos() Pos   { return s.pos }

// declType is the declared type of a local variable.
type declType uint8

const (
	declInt declType = iota
	declDouble
	declString
	declVoid // function return types only
)

// funcDecl is a user-defined function: "int f(int a, double b) { ... }".
type funcDecl struct {
	pos    Pos
	ret    declType
	name   string
	params []paramDecl
	body   *blockStmt
}

type paramDecl struct {
	pos  Pos
	typ  declType
	name string
}

func (s *funcDecl) stmtPos() Pos { return s.pos }

type expr interface{ exprPos() Pos }

type (
	intLit struct {
		pos Pos
		v   int64
	}

	floatLit struct {
		pos Pos
		v   float64
	}

	strLit struct {
		pos Pos
		v   string
	}

	identExpr struct {
		pos  Pos
		name string
	}

	fieldExpr struct {
		pos  Pos
		base expr
		name string
	}

	indexExpr struct {
		pos  Pos
		base expr
		idx  expr
	}

	callExpr struct {
		pos  Pos
		name string
		args []expr
	}

	unaryExpr struct {
		pos Pos
		op  tokKind // tokMinus, tokNot
		x   expr
	}

	binaryExpr struct {
		pos  Pos
		op   tokKind
		l, r expr
	}

	condExpr struct {
		pos  Pos
		cond expr
		t, f expr
	}
)

func (e *intLit) exprPos() Pos     { return e.pos }
func (e *floatLit) exprPos() Pos   { return e.pos }
func (e *strLit) exprPos() Pos     { return e.pos }
func (e *identExpr) exprPos() Pos  { return e.pos }
func (e *fieldExpr) exprPos() Pos  { return e.pos }
func (e *indexExpr) exprPos() Pos  { return e.pos }
func (e *callExpr) exprPos() Pos   { return e.pos }
func (e *unaryExpr) exprPos() Pos  { return e.pos }
func (e *binaryExpr) exprPos() Pos { return e.pos }
func (e *condExpr) exprPos() Pos   { return e.pos }
