package pbio

import (
	"errors"
	"reflect"
	"sync"
	"testing"
)

// The paper's Figure 2 example: a load-monitoring message.
type loadMsg struct {
	CPU     int32 `pbio:"load"`
	Memory  int32 `pbio:"mem"`
	Network int32 `pbio:"net"`
}

type contactInfo struct {
	Info string `pbio:"info"`
	ID   int32  `pbio:"channel_id"`
}

type memberV2 struct {
	Contact  contactInfo `pbio:"contact"`
	IsSource bool        `pbio:"is_source"`
	IsSink   bool        `pbio:"is_sink"`
}

type responseV2 struct {
	MemberCount int32      `pbio:"member_count"`
	Members     []memberV2 `pbio:"member_list"`
}

func TestRegisterFigure2(t *testing.T) {
	var reg Registry
	f, err := reg.Register(loadMsg{}, "Msg")
	if err != nil {
		t.Fatal(err)
	}
	if f.Name() != "Msg" || f.NumFields() != 3 {
		t.Fatalf("format = %v", f)
	}
	for i, want := range []string{"load", "mem", "net"} {
		fld := f.Field(i)
		if fld.Name != want || fld.Kind != Integer || fld.Size != 4 {
			t.Errorf("field %d = %+v, want %s integer(4)", i, fld, want)
		}
	}
	// Re-registration returns the identical cached format.
	f2, err := reg.Register(&loadMsg{}, "ignored-on-cache-hit")
	if err != nil {
		t.Fatal(err)
	}
	if f != f2 {
		t.Error("re-registration must return the cached *Format")
	}
	if reg.FormatOf(loadMsg{}) != f {
		t.Error("FormatOf must find the registered format")
	}
	if reg.FormatOf(struct{ X int }{}) != nil {
		t.Error("FormatOf on unregistered type must be nil")
	}
}

// bridgeRoundTrip sends in through the one codec — ToRecord, EncodeRecord,
// DecodeRecord, FromRecord — into out.
func bridgeRoundTrip(t *testing.T, reg *Registry, in, out any) {
	t.Helper()
	rec, err := reg.ToRecord(in)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := DecodeRecord(EncodeRecord(rec), rec.Format())
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.FromRecord(dec, out); err != nil {
		t.Fatal(err)
	}
}

func TestStructBridgeRoundtrip(t *testing.T) {
	var reg Registry
	in := responseV2{
		MemberCount: 2,
		Members: []memberV2{
			{Contact: contactInfo{Info: "tcp:host1:5000", ID: 7}, IsSource: true},
			{Contact: contactInfo{Info: "tcp:host2:5001", ID: 7}, IsSink: true},
		},
	}
	var out responseV2
	bridgeRoundTrip(t, &reg, &in, &out)
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("roundtrip mismatch:\n in  %+v\n out %+v", in, out)
	}
}

func TestStructBridgeAllScalarKinds(t *testing.T) {
	type all struct {
		I8   int8     `pbio:"i8"`
		I16  int16    `pbio:"i16"`
		I32  int32    `pbio:"i32"`
		I64  int64    `pbio:"i64"`
		I    int      `pbio:"i"`
		U8   uint8    `pbio:"u8"`
		U16  uint16   `pbio:"u16"`
		U32  uint32   `pbio:"u32"`
		U64  uint64   `pbio:"u64"`
		U    uint     `pbio:"u"`
		F32  float32  `pbio:"f32"`
		F64  float64  `pbio:"f64"`
		B    bool     `pbio:"b"`
		S    string   `pbio:"s"`
		C    byte     `pbio:"c,char"`
		E    int32    `pbio:"e,enum=off|on"`
		UE   uint16   `pbio:"ue,enum"`
		Ints []int16  `pbio:"ints"`
		Strs []string `pbio:"strs"`
	}
	var reg Registry
	in := all{
		I8: -8, I16: -16, I32: -32, I64: -64, I: -1,
		U8: 8, U16: 16, U32: 32, U64: 1 << 63, U: 1,
		F32: 0.5, F64: 2.25, B: true, S: "str", C: 'q', E: 1, UE: 3,
		Ints: []int16{1, -2, 3}, Strs: []string{"a", ""},
	}
	var out all
	bridgeRoundTrip(t, &reg, in, &out)
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("roundtrip mismatch:\n in  %+v\n out %+v", in, out)
	}

	f := reg.FormatOf(all{})
	if k := f.FieldByName("c").Kind; k != Char {
		t.Errorf("char tag option: kind = %v", k)
	}
	fld := f.FieldByName("e")
	if fld.Kind != Enum || len(fld.Symbols) != 2 || fld.Symbols[1] != "on" {
		t.Errorf("enum tag option: %+v", fld)
	}
	if k := f.FieldByName("ue").Kind; k != Enum {
		t.Errorf("enum tag option on an unsigned field: kind = %v", k)
	}
}

func TestTagSkipAndUnexported(t *testing.T) {
	type s struct {
		Keep    int32  `pbio:"keep"`
		Skipped int32  `pbio:"-"`
		hidden  int32  //nolint:unused // exercises the unexported-skip path
		NoTag   string // exported without a tag: included under its Go name
	}
	var reg Registry
	f, err := reg.Register(s{}, "")
	if err != nil {
		t.Fatal(err)
	}
	if f.NumFields() != 2 {
		t.Fatalf("NumFields = %d, want 2 (Keep, NoTag): %v", f.NumFields(), f)
	}
	if f.Lookup("keep") < 0 || f.Lookup("NoTag") < 0 {
		t.Errorf("fields = %v", f)
	}
	if f.Name() != "s" {
		t.Errorf("default name = %q, want struct type name", f.Name())
	}
	_ = s{hidden: 0}
}

// Types that contain themselves through slices: Go allows them, but they
// describe no finite record.
type (
	treeNode struct {
		Kids []treeNode `pbio:"kids"`
	}
	evenNode struct {
		Odd []oddNode `pbio:"odd"`
	}
	oddNode struct {
		Even []evenNode `pbio:"even"`
	}
)

func TestRegisterErrors(t *testing.T) {
	var reg Registry
	cases := []struct {
		name string
		v    any
	}{
		{"non-struct", 42},
		{"nil", nil},
		{"no fields", struct{ x int }{}},
		{"pointer field", struct {
			P *int `pbio:"p"`
		}{}},
		{"map field", struct {
			M map[string]int `pbio:"m"`
		}{}},
		{"slice of slice", struct {
			S [][]int `pbio:"s"`
		}{}},
		{"self-referential", treeNode{}},
		{"mutually recursive", evenNode{}},
		{"self-referential member", struct {
			N treeNode `pbio:"n"`
		}{}},
	}
	for _, tt := range cases {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := reg.Register(tt.v, ""); !errors.Is(err, ErrBadType) {
				t.Errorf("err = %v, want ErrBadType", err)
			}
		})
	}
	// The struct bridge registers implicitly, so it must refuse them too.
	if _, err := reg.ToRecord(&treeNode{}); !errors.Is(err, ErrBadType) {
		t.Errorf("ToRecord: err = %v, want ErrBadType", err)
	}
	if err := reg.FromRecord(NewRecord(mustFormatT(t, "treeNode", []Field{basicField("x", Integer)})), &treeNode{}); !errors.Is(err, ErrBadType) {
		t.Errorf("FromRecord: err = %v, want ErrBadType", err)
	}
}

// TestFromRecordErrors: FromRecord refuses a non-pointer, a nil pointer and
// a record of another structure; ToRecord refuses a nil pointer. Malformed
// bytes are DecodeRecord's to refuse (TestDecodeErrors).
func TestFromRecordErrors(t *testing.T) {
	var reg Registry
	rec, err := reg.ToRecord(loadMsg{CPU: 1})
	if err != nil {
		t.Fatal(err)
	}

	var m loadMsg
	if err := reg.FromRecord(rec, m); !errors.Is(err, ErrBadType) {
		t.Errorf("non-pointer: err = %v", err)
	}
	if err := reg.FromRecord(rec, (*loadMsg)(nil)); !errors.Is(err, ErrBadType) {
		t.Errorf("nil pointer: err = %v", err)
	}
	var other responseV2
	if err := reg.FromRecord(rec, &other); !errors.Is(err, ErrFingerprint) {
		t.Errorf("wrong type: err = %v", err)
	}
	if _, err := reg.ToRecord((*loadMsg)(nil)); !errors.Is(err, ErrBadType) {
		t.Errorf("ToRecord nil pointer: err = %v", err)
	}
	if _, err := reg.ToRecord(nil); !errors.Is(err, ErrBadType) {
		t.Errorf("ToRecord nil: err = %v", err)
	}
}

func TestToRecordFromRecord(t *testing.T) {
	var reg Registry
	in := responseV2{
		MemberCount: 1,
		Members:     []memberV2{{Contact: contactInfo{Info: "x", ID: 3}, IsSink: true}},
	}
	rec, err := reg.ToRecord(&in)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Format().Name() != "responseV2" {
		t.Errorf("record format = %q", rec.Format().Name())
	}
	v, _ := rec.Get("member_list")
	if v.Len() != 1 || v.List()[0].Record().GetIndex(1).Kind() != Boolean {
		t.Fatalf("member_list = %v", v)
	}

	var out responseV2
	if err := reg.FromRecord(rec, &out); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("ToRecord∘FromRecord ≠ id:\n in  %+v\n out %+v", in, out)
	}

	// FromRecord must reject a structurally different record.
	otherFmt := mustFormatT(t, "other", []Field{basicField("x", Integer)})
	if err := reg.FromRecord(NewRecord(otherFmt), &out); !errors.Is(err, ErrFingerprint) {
		t.Errorf("err = %v, want ErrFingerprint", err)
	}
	if err := reg.FromRecord(rec, out); !errors.Is(err, ErrBadType) {
		t.Errorf("non-pointer: err = %v, want ErrBadType", err)
	}
}

// TestRegistryConcurrentUse races first registrations and conversions of
// several types through one Registry: the binding cache is shared state.
func TestRegistryConcurrentUse(t *testing.T) {
	var reg Registry
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			var in, out any
			if n%2 == 0 {
				in, out = &loadMsg{CPU: int32(n)}, &loadMsg{}
			} else {
				in = &responseV2{MemberCount: int32(n), Members: []memberV2{{Contact: contactInfo{ID: int32(n)}}}}
				out = &responseV2{}
			}
			rec, err := reg.ToRecord(in)
			if err != nil {
				errs <- err
				return
			}
			if err := reg.FromRecord(rec, out); err != nil {
				errs <- err
				return
			}
			if !reflect.DeepEqual(in, out) {
				errs <- errors.New("data raced")
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestStructBridgeAllocs gates the struct bridge on the paper's Figure 2
// message: ToRecord allocates the record and its values (one slab each) and
// nothing per field; FromRecord allocates nothing, since the field indices
// were derived once, at registration.
func TestStructBridgeAllocs(t *testing.T) {
	var reg Registry
	in := &loadMsg{CPU: 42, Memory: 2048, Network: 10}
	rec, err := reg.ToRecord(in)
	if err != nil {
		t.Fatal(err)
	}
	var out loadMsg
	to := testing.AllocsPerRun(200, func() {
		if _, err := reg.ToRecord(in); err != nil {
			t.Fatal(err)
		}
	})
	from := testing.AllocsPerRun(200, func() {
		if err := reg.FromRecord(rec, &out); err != nil {
			t.Fatal(err)
		}
	})
	if to > 2 || from > 0 {
		t.Fatalf("ToRecord %.0f allocs (max 2), FromRecord %.0f (max 0)", to, from)
	}
	if out != *in {
		t.Fatalf("FromRecord = %+v, want %+v", out, *in)
	}
}

var bridgeSink any

// BenchmarkStructBridge times the struct bridge on the Figure 2 message,
// each direction with the codec step it pairs with on the wire.
func BenchmarkStructBridge(b *testing.B) {
	var reg Registry
	in := &loadMsg{CPU: 42, Memory: 2048, Network: 10}
	rec, err := reg.ToRecord(in)
	if err != nil {
		b.Fatal(err)
	}
	data := EncodeRecord(rec)
	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rec, _ := reg.ToRecord(in)
			bridgeSink = EncodeRecord(rec)
		}
	})
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		var out loadMsg
		for i := 0; i < b.N; i++ {
			rec, _ := DecodeRecord(data, rec.Format())
			bridgeSink = reg.FromRecord(rec, &out)
		}
	})
}

func TestMustRegisterPanics(t *testing.T) {
	var reg Registry
	defer func() {
		if recover() == nil {
			t.Fatal("MustRegister must panic on bad types")
		}
	}()
	reg.MustRegister(42, "")
}
