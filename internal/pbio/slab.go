package pbio

// Slab hands out records carved from shared chunks, so that building the
// elements of a list costs an allocation per chunk instead of two (record
// and values) per element. A record from a slab keeps its whole chunk
// alive. The zero Slab is ready to use; it is not safe for concurrent use.
//
// A slab can also be rewound (Rewind) and carve the same memory again: a
// caller that decodes a record it drops before the next decode
// (Slab.DecodePayload) then allocates no records, values or list arrays.
type Slab struct {
	recs []Record
	vals []Value
	next int // records in the next doubling chunk

	// What Rewind carves from again: the chunks it last sized, and the
	// records and values handed out since.
	baseRecs     []Record
	baseVals     []Value
	nrecs, nvals int
}

// slabFirstChunk is the record count of a slab's first doubling chunk.
const slabFirstChunk = 8

// Footprint returns the records and values one new record of f occupies:
// its own plus those of the nested records its Complex fields hold inline.
func (f *Format) Footprint() (recs, vals int) {
	recs, vals = 1, len(f.fields)
	for i := range f.fields {
		if fld := &f.fields[i]; fld.Kind == Complex {
			r, v := fld.Sub.Footprint()
			recs += r
			vals += v
		}
	}
	return recs, vals
}

// Reserve makes room for n records of f in chunks of exactly that size, so
// the next n NewRecord(f) calls allocate nothing.
func (s *Slab) Reserve(f *Format, n int) {
	r, v := f.Footprint()
	s.Grow(n*r, n*v)
}

// Grow makes room for recs records and vals values, in one chunk of each
// when the slab has too little left, so that carving that many — records
// of any formats (see Footprint) and the arrays of NewList — allocates
// nothing.
func (s *Slab) Grow(recs, vals int) {
	if len(s.recs) < recs {
		s.recs = make([]Record, recs)
	}
	if len(s.vals) < vals {
		s.vals = make([]Value, vals)
	}
}

// NewList returns an empty list with room for n elements, its array carved
// from s (n values of it): appending up to n elements moves nothing.
func (s *Slab) NewList(n int) Value {
	return ListOf(s.values(n)[:0])
}

// carve returns a record of f whose values are all the zero Value. When the
// slab has no room it grows by a chunk twice the size of the last.
func (s *Slab) carve(f *Format) *Record {
	nf := len(f.fields)
	if len(s.recs) == 0 {
		s.next = max(2*s.next, slabFirstChunk)
		s.recs = make([]Record, s.next)
	}
	if len(s.vals) < nf {
		s.vals = make([]Value, max(s.next, 1)*nf)
	}
	r := &s.recs[0]
	s.recs = s.recs[1:]
	r.format = f
	r.vals = s.vals[:nf:nf]
	s.vals = s.vals[nf:]
	s.nrecs++
	s.nvals += nf
	return r
}

// values returns n zero Values carved from the slab, for a list's element
// array; a list of none is empty, not nil, as make builds it.
func (s *Slab) values(n int) []Value {
	if n == 0 {
		return []Value{}
	}
	if len(s.vals) < n {
		s.vals = make([]Value, max(n, s.nvals))
	}
	v := s.vals[:n:n]
	s.vals = s.vals[n:]
	s.nvals += n
	return v
}

// Rewind makes all the memory s has handed out available to carve again,
// zeroed, so no record, value or string it held stays reachable through s.
// Every record carved from s before the call must be dead: the next carve
// overwrites it. A slab whose chunks overflowed since the last Rewind
// replaces them with one chunk of records and one of values sized to what
// was handed out, so a run of like-sized decodes carves from those alone.
func (s *Slab) Rewind() {
	if s.nrecs > len(s.baseRecs) {
		s.baseRecs = make([]Record, s.nrecs)
	} else {
		clear(s.baseRecs[:s.nrecs])
	}
	if s.nvals > len(s.baseVals) {
		s.baseVals = make([]Value, s.nvals)
	} else {
		clear(s.baseVals[:s.nvals])
	}
	s.recs, s.vals = s.baseRecs, s.baseVals
	s.nrecs, s.nvals, s.next = 0, 0, 0
}

// NewRecord returns a record of f with every field set to its zero value,
// exactly as the package-level NewRecord builds it, nested records included.
func (s *Slab) NewRecord(f *Format) *Record {
	r := s.carve(f)
	for i := range r.vals {
		// Carved values are all-zero, so the kind completes every zero
		// Value but a nested record's (see zeroValue).
		if fld := &f.fields[i]; fld.Kind == Complex {
			r.vals[i] = RecordOf(s.NewRecord(fld.Sub))
		} else {
			r.vals[i].kind = fld.Kind
		}
	}
	return r
}
