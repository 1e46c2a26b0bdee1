package pbio

// Slab hands out records carved from shared chunks, so that building the
// elements of a list costs an allocation per chunk instead of two (record
// and values) per element. A record from a slab keeps its whole chunk
// alive. The zero Slab is ready to use; it is not safe for concurrent use.
type Slab struct {
	recs []Record
	vals []Value
	next int // records in the next doubling chunk
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
	if len(s.recs) < n*r {
		s.recs = make([]Record, n*r)
	}
	if len(s.vals) < n*v {
		s.vals = make([]Value, n*v)
	}
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
	return r
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
