package rowset

import (
	"errors"
	"io"
	"testing"

	"dhqp/internal/schema"
	"dhqp/internal/sqltypes"
)

func cols(names ...string) []schema.Column {
	out := make([]schema.Column, len(names))
	for i, n := range names {
		out[i] = schema.Column{Name: n, Kind: sqltypes.KindInt}
	}
	return out
}

func intRow(vs ...int64) Row {
	r := make(Row, len(vs))
	for i, v := range vs {
		r[i] = sqltypes.NewInt(v)
	}
	return r
}

func TestMaterializedIteration(t *testing.T) {
	m := NewMaterialized(cols("a", "b"), []Row{intRow(1, 2), intRow(3, 4)})
	b := NewBatch(1)
	if err := m.NextBatch(b); err != nil || b.Len() != 1 || b.RowAt(0, nil)[0].Int() != 1 {
		t.Fatalf("first fill: %v %v", liveRows(b), err)
	}
	if err := m.NextBatch(b); err != nil || b.Len() != 1 || b.RowAt(0, nil)[1].Int() != 4 {
		t.Fatalf("second fill: %v %v", liveRows(b), err)
	}
	if err := m.NextBatch(b); err != io.EOF {
		t.Fatalf("want EOF, got %v", err)
	}
	if m.Len() != 2 {
		t.Fatalf("Len = %d", m.Len())
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestRowClone(t *testing.T) {
	r := intRow(1, 2)
	c := r.Clone()
	c[0] = sqltypes.NewInt(99)
	if r[0].Int() != 1 {
		t.Error("Clone aliases the original")
	}
}

func TestRowEncodedSizeAndString(t *testing.T) {
	r := Row{sqltypes.NewInt(1), sqltypes.NewString("ab")}
	if got := r.EncodedSize(); got != 2+8+4+2 {
		t.Errorf("EncodedSize = %d", got)
	}
	if got := r.String(); got != "(1, ab)" {
		t.Errorf("String = %q", got)
	}
}

// A materialized rowset holds its own columns: the rows it was built from
// may change afterwards, and the rows it hands out may be kept.
func TestMaterializedOwnsItsRows(t *testing.T) {
	r := intRow(5)
	m := NewMaterialized(cols("a"), []Row{r, intRow(6)})
	r[0] = sqltypes.NewInt(7)
	b := NewBatch(0)
	if err := m.NextBatch(b); err != nil {
		t.Fatal(err)
	}
	if got := liveRows(b); got[0][0].Int() != 5 || got[1][0].Int() != 6 {
		t.Errorf("rows %v, want (5) (6): NewMaterialized kept its input", got)
	}
	if rows := m.Rows(); rows[0][0].Int() != 5 || rows[0][0].Kind() != sqltypes.KindInt {
		t.Errorf("Rows()[0] = %v", rows[0])
	}
}

func TestReadAll(t *testing.T) {
	src := NewMaterialized(cols("a"), []Row{intRow(1), intRow(2)})
	m, err := ReadAll(src)
	if err != nil {
		t.Fatal(err)
	}
	if m.Len() != 2 {
		t.Fatalf("Len = %d", m.Len())
	}
}

func TestReadAllPropagatesError(t *testing.T) {
	boom := errors.New("boom")
	f := &Func{Cols: cols("a"), NextFn: func(*Batch) error { return boom }}
	if _, err := ReadAll(f); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
}

func TestFuncRowset(t *testing.T) {
	closed := false
	f := intFills([]Row{intRow(1), intRow(2), intRow(3)}, 1)
	f.CloseFn = func() error { closed = true; return nil }
	m, err := ReadAll(f)
	if err != nil || m.Len() != 3 {
		t.Fatalf("%v %v", m, err)
	}
	if rows := m.Rows(); rows[2][0].Int() != 3 || rows[2][0].Kind() != sqltypes.KindInt {
		t.Errorf("ReadAll rows = %v", rows)
	}
	if !closed {
		t.Error("ReadAll did not close source")
	}
}

func TestFuncRowsetNilClose(t *testing.T) {
	f := &Func{Cols: cols("a"), NextFn: func(*Batch) error { return io.EOF }}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestRowObject(t *testing.T) {
	ro := &RowObject{
		Common: intRow(1),
		Extra:  map[string]sqltypes.Value{"subject": sqltypes.NewString("hi")},
	}
	v, ok := ro.Get("subject")
	if !ok || v.Str() != "hi" {
		t.Error("Get(subject) failed")
	}
	if _, ok := ro.Get("missing"); ok {
		t.Error("Get(missing) should fail")
	}
}
