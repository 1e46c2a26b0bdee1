package ecode

import "repro/internal/pbio"

// FieldMove is one store of a field map: field Dst of the program's second
// parameter takes field Src of its first, or the constant Const when Src is
// -1. Field numbers are indices into the parameters' formats.
type FieldMove struct {
	Dst, Src int
	Const    pbio.Value
}

// FieldMap reports whether the program only moves fields and, when it does,
// returns what it moves: one FieldMove per store, in source order. Such a
// program has two parameters, and is a flat list of "dst.f = src.g;" and
// "dst.f = literal;" statements (after constant folding) whose destinations
// are distinct basic fields of the second parameter. It never reads the
// destination or writes the source, so running it is the same as storing
// each move into a zero record of the second format with SetIndex; the
// destination fields it never names keep their zero values. The moves are
// shared; callers must not modify them.
func (p *Program) FieldMap() ([]FieldMove, bool) { return p.moves, p.moves != nil }

// fieldMap returns the field map of a parsed program, or nil when it does
// more than move fields. It checks what the compiler would for such a
// program — the fields exist, and numbers go to numeric fields and strings
// to string ones — so a program it maps always compiles.
func fieldMap(stmts []stmt, params []Param) []FieldMove {
	if len(params) != 2 {
		return nil
	}
	src, dst := params[0], params[1]
	moves := make([]FieldMove, 0, len(stmts))
	written := make([]bool, dst.Format.NumFields())
	for _, s := range stmts {
		a, ok := s.(*assignStmt)
		if !ok || a.op != tokAssign {
			return nil
		}
		j := paramField(a.lhs, dst)
		if j < 0 || written[j] {
			return nil
		}
		written[j] = true
		mv := FieldMove{Dst: j, Src: -1}
		switch r := foldExpr(a.rhs).(type) {
		case *intLit:
			mv.Const = pbio.Int(r.v)
		case *floatLit:
			mv.Const = pbio.Float64(r.v)
		case *strLit:
			mv.Const = pbio.Str(r.v)
		default:
			if mv.Src = paramField(r, src); mv.Src < 0 {
				return nil
			}
		}
		have, want := mv.Const.Kind(), dst.Format.Field(j).Kind
		if mv.Src >= 0 {
			have = src.Format.Field(mv.Src).Kind
		}
		if !have.IsBasic() || !want.IsBasic() || (have == pbio.String) != (want == pbio.String) {
			return nil
		}
		moves = append(moves, mv)
	}
	return moves
}

// paramField returns the index of the field e names when e is "p.field",
// and -1 otherwise.
func paramField(e expr, p Param) int {
	fe, ok := e.(*fieldExpr)
	if !ok {
		return -1
	}
	if id, ok := fe.base.(*identExpr); !ok || id.name != p.Name {
		return -1
	}
	return p.Format.Lookup(fe.name)
}
