// Package ecode implements a small C-subset language for message
// transformations, modeled on the E-Code language (Eisenhauer, GIT-CC-02-42)
// that the ICDCS 2005 Message Morphing paper attaches to evolving formats.
//
// A transformation is C-like source text that reads fields of one or more
// source records and writes fields of a destination record, e.g. the paper's
// Figure 5 ChannelOpenResponse v2.0 → v1.0 conversion:
//
//	int i, sink_count = 0, src_count = 0;
//	old.member_count = new.member_count;
//	for (i = 0; i < new.member_count; i++) {
//	    old.member_list[i].info = new.member_list[i].info;
//	    ...
//	}
//
// The original E-Code compiles to native machine code at run time. Go offers
// no runtime machine-code generation, so this package substitutes the
// nearest thing: one pass that type-checks the syntax tree and compiles it
// into a tree of Go closures. Compile is called once per (format,
// transformation) pair — exactly where the paper invokes its dynamic code
// generator — and the resulting Program is cached and executed per message.
// The compile-once / run-many structure, which is what the paper's
// evaluation depends on, is preserved.
//
// The closures are typed: an int, double or boolean expression computes an
// int64, float64 or bool, and a value is boxed into a pbio.Value only where
// it is stored, passed or returned. Int and double locals are numbers in
// place. A record reached through a list subscript whose subscripts are
// int literals or locals — new.member_list[i] — is navigated once and kept
// in a frame slot, so the rest of the loop body reads it there, as
// hand-written Go would keep it in a variable. The slot is emptied when a
// local its subscripts read is assigned, when a store replaces a record or
// a list (which may be a prefix of the path, in either parameter, or in
// both when they are one record), and when a user function returns. A
// straight-line run of statements is charged its steps once, on entry.
//
// Transformation code arrives over the network, so both halves are
// bounded: source may nest at most maxNesting levels deep, and a Run stops
// with ErrRuntime once it has taken Program.MaxSteps steps, which bound
// both its time and its memory.
//
// Supported language: int/long/double/char* ("string") locals with
// initializers; assignment including the compound operators and ++/--;
// arithmetic, comparison and logical operators with C precedence;
// if/else, for, while, do/while, switch (constant labels, C fallthrough),
// break, continue, return; top-level user-defined functions (recursion
// bounded by a call-depth cap and the shared step budget); record field
// access and dynamic-list subscripts (writing one past the end of a list
// extends it, which is how PBIO-style counted lists grow); and builtins
// (strlen, len, abs, fabs, floor, ceil, atoi, atof, itoa, dtoa, streq,
// strcat, substr). The compiler constant-folds literal expressions by
// compiling each operation over literals and running its closure once, so
// folded and unfolded code share one copy of every operator.
//
// A program that only moves fields — after folding, a flat list of
// "dst.f = src.g;" and "dst.f = literal;" stores into distinct basic fields
// of its second parameter, never reading the destination or writing the
// source — also exposes a field map (Program.FieldMap): one FieldMove per
// store, a destination field index paired with a source field index or a
// constant. Running such a program is storing each move into a zero record
// with pbio's SetIndex, so a caller may run the map instead of the program;
// the morphing engine turns it into a conversion plan. Numeric stores hand
// their value to SetIndex unconverted, so the map and the program coerce
// alike. Compile checks such a program but builds its closures only when it
// first runs.
//
// A program may also keep a field map with int locals and one loop among
// those stores, when the loop only moves the fields of a source list's
// elements: Figure 5 above is such a program. The loop counts i from 0 to
// a source field; its body stores fields of new.M[i] into fields of
// old.L[i], and appends them to lists old.S under a Boolean element field,
// each with its own counter, optionally stored in a count field. Each
// list it builds is a list move (a FieldMove with a pbio.Each), which the
// engine runs inside the decoder. FieldMap's doc states the exact shape
// and semantics, down to the runtime error of a count past the list's end,
// and which inputs the step budget would have refused. Such a program is
// compiled at once.
//
// Field references are resolved and type-checked at compile time against the
// participating pbio Formats, so a transformation that mentions a field its
// formats do not have is rejected when the format arrives, not when the
// first message does.
package ecode
