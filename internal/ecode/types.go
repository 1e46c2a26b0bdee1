package ecode

import (
	"fmt"

	"repro/internal/pbio"
)

// typeKind classifies expression types. Record fields of the integer-like
// pbio kinds (Integer, Unsigned, Char, Enum, Boolean) all read and write as
// tInt, matching C's everything-is-an-int flavor; the declared field kind
// reasserts itself on store through pbio's coercion.
type typeKind uint8

const (
	tVoid typeKind = iota
	tInt
	tFloat
	tStr
	tRec
	tList
)

func (k typeKind) String() string {
	switch k {
	case tVoid:
		return "void"
	case tInt:
		return "int"
	case tFloat:
		return "double"
	case tStr:
		return "string"
	case tRec:
		return "record"
	case tList:
		return "list"
	default:
		return fmt.Sprintf("type(%d)", uint8(k))
	}
}

// etype is a resolved expression type: the kind plus, for records and lists,
// the format meta-data needed to resolve further field accesses.
type etype struct {
	k      typeKind
	format *pbio.Format // tRec
	elem   *pbio.Field  // tList
}

func fieldType(fld *pbio.Field) etype {
	switch fld.Kind {
	case pbio.Integer, pbio.Unsigned, pbio.Char, pbio.Enum, pbio.Boolean:
		return etype{k: tInt}
	case pbio.Float:
		return etype{k: tFloat}
	case pbio.String:
		return etype{k: tStr}
	case pbio.Complex:
		return etype{k: tRec, format: fld.Sub}
	case pbio.List:
		return etype{k: tList, elem: fld.Elem}
	default:
		return etype{k: tVoid}
	}
}

func declTypeOf(d declType) etype {
	switch d {
	case declVoid:
		return etype{k: tVoid}
	case declDouble:
		return etype{k: tFloat}
	case declString:
		return etype{k: tStr}
	default:
		return etype{k: tInt}
	}
}

func (t etype) isNumeric() bool { return t.k == tInt || t.k == tFloat }

func (t etype) String() string {
	switch t.k {
	case tRec:
		return fmt.Sprintf("record %q", t.format.Name())
	case tList:
		return fmt.Sprintf("list of %v", fieldType(t.elem))
	default:
		return t.k.String()
	}
}
