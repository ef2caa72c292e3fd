package rowset

import (
	"io"
	"testing"

	"dhqp/internal/schema"
	"dhqp/internal/sqltypes"
)

func TestBatchAppendAndSelection(t *testing.T) {
	b := NewBatch(4)
	b.Reset(2)
	for i := int64(0); i < 4; i++ {
		b.AppendRow(intRow(i, i*10))
	}
	if !b.Full() || b.Len() != 4 || b.NumRows() != 4 || b.Width() != 2 {
		t.Fatalf("after fill: full=%v len=%d n=%d w=%d", b.Full(), b.Len(), b.NumRows(), b.Width())
	}
	if got := b.Indices(); len(got) != 4 || got[0] != 0 || got[3] != 3 {
		t.Fatalf("identity indices = %v", got)
	}
	b.SetSelection([]int{1, 3})
	if b.Len() != 2 || b.NumRows() != 4 {
		t.Fatalf("after selection: len=%d n=%d", b.Len(), b.NumRows())
	}
	r := b.RowAt(1, nil)
	if r[0].Int() != 3 || r[1].Int() != 30 {
		t.Fatalf("RowAt(1) = %v", r)
	}
	// Narrowing the selection again must not resurrect dropped rows.
	b.SetSelection([]int{3})
	if b.Len() != 1 || b.RowAt(0, nil)[0].Int() != 3 {
		t.Fatalf("second selection: len=%d row=%v", b.Len(), b.RowAt(0, nil))
	}
}

func TestBatchWidthFromFirstRow(t *testing.T) {
	b := NewBatch(8)
	b.Reset(0)
	b.AppendRow(intRow(7, 8, 9))
	if b.Width() != 3 || b.Len() != 1 {
		t.Fatalf("width=%d len=%d", b.Width(), b.Len())
	}
	b.Truncate(2)
	if b.Width() != 2 {
		t.Fatalf("after truncate width=%d", b.Width())
	}
	// Reset restores the requested width and clears the selection.
	b.SetSelection([]int{0})
	b.Reset(1)
	if b.Width() != 1 || b.Len() != 0 {
		t.Fatalf("after reset width=%d len=%d", b.Width(), b.Len())
	}
}

func TestClampBatchSize(t *testing.T) {
	for _, tc := range []struct{ in, want int }{
		{0, DefaultBatchSize}, {-5, DefaultBatchSize},
		{1, 1}, {3, 3}, {4096, 4096}, {9999, MaxBatchSize},
	} {
		if got := ClampBatchSize(tc.in); got != tc.want {
			t.Errorf("ClampBatchSize(%d) = %d, want %d", tc.in, got, tc.want)
		}
	}
}

func TestFillBatchAndMaterializedRoundTrip(t *testing.T) {
	cols := []schema.Column{{Name: "a", Kind: sqltypes.KindInt}, {Name: "b", Kind: sqltypes.KindInt}}
	var rows []Row
	for i := int64(0); i < 10; i++ {
		rows = append(rows, intRow(i, 100+i))
	}
	src := NewMaterialized(cols, rows)
	var out Store
	out.Reset(len(cols))
	b := NewBatch(3)
	total := 0
	for {
		err := FillBatch(src, b, nil)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		total += b.Len()
		if b.Col(0).Kind() != sqltypes.KindInt {
			t.Fatalf("a fill of INT columns is %v", b.Col(0).Kind())
		}
		out.AddBatch(b)
	}
	if total != 10 || out.Len() != 10 {
		t.Fatalf("round-tripped %d rows, stored %d, want 10", total, out.Len())
	}
	for i, r := range storedRows(&out) {
		if r[0].Int() != int64(i) || r[1].Int() != int64(100+i) {
			t.Fatalf("row %d = %v", i, r)
		}
	}
}

// storedRows boxes every row of s, read back through Emit.
func storedRows(s *Store) []Row {
	var rows []Row
	b := NewBatch(MaxBatchSize)
	for from := 0; from < s.Len(); {
		from += s.Emit(b, from)
		for i := 0; i < b.Len(); i++ {
			rows = append(rows, b.RowAt(i, nil))
		}
	}
	return rows
}

// Func adapts a fill function into a Rowset with no projected read.
type Func struct {
	Cols    []schema.Column
	NextFn  func(b *Batch) error
	CloseFn func() error
}

// Columns implements Rowset.
func (f *Func) Columns() []schema.Column { return f.Cols }

// NextBatch implements Rowset.
func (f *Func) NextBatch(b *Batch) error { return f.NextFn(b) }

// Close implements Rowset.
func (f *Func) Close() error {
	if f.CloseFn != nil {
		return f.CloseFn()
	}
	return nil
}

// intFills is a Func over rows, k rows per fill.
func intFills(rows []Row, k int) *Func {
	return &Func{
		Cols: cols("a", "b", "c")[:len(rows[0])],
		NextFn: func(b *Batch) error {
			if len(rows) == 0 {
				return io.EOF
			}
			n := min(k, len(rows), b.CapRows())
			b.ResetTyped([]sqltypes.Kind{sqltypes.KindInt, sqltypes.KindInt, sqltypes.KindInt}[:len(rows[0])])
			for _, r := range rows[:n] {
				b.AppendRow(r)
			}
			rows = rows[n:]
			return nil
		},
	}
}

// TestFillBatchProjectsFullFill: a rowset with no projected read, filled
// through a projection — reordered, duplicated, narrower — reads the
// projected rows, fill after fill, as the projected read of Materialized
// does.
func TestFillBatchProjectsFullFill(t *testing.T) {
	var rows []Row
	for i := int64(0); i < 10; i++ {
		rows = append(rows, intRow(i, 100+i, 200+i))
	}
	for _, proj := range [][]int{nil, {2, 0}, {1, 1, 0}, {2}, {0, 1, 2}} {
		want := rows
		if proj != nil {
			want = make([]Row, len(rows))
			for i, r := range rows {
				for _, src := range proj {
					want[i] = append(want[i], r[src])
				}
			}
		}
		for _, src := range []Rowset{intFills(rows, 4), NewMaterialized(cols("a", "b", "c"), rows)} {
			b := NewBatch(3)
			var got []Row
			for {
				err := FillBatch(src, b, proj)
				if err == io.EOF {
					break
				}
				if err != nil {
					t.Fatal(err)
				}
				if w := len(proj); proj != nil && b.Width() != w {
					t.Fatalf("%T proj %v: a fill %d columns wide", src, proj, b.Width())
				}
				got = append(got, liveRows(b)...)
			}
			if !sameRows(got, want) {
				t.Fatalf("%T proj %v: read %v, want %v", src, proj, got, want)
			}
		}
	}
}

func TestStoreAddBatchHonorsSelection(t *testing.T) {
	b := NewBatch(4)
	b.Reset(1)
	for i := int64(0); i < 4; i++ {
		b.AppendRow(intRow(i))
	}
	b.SetSelection([]int{0, 2})
	var s Store
	s.Reset(1)
	s.AddBatch(b)
	rows := storedRows(&s)
	if len(rows) != 2 || rows[0][0].Int() != 0 || rows[1][0].Int() != 2 {
		t.Fatalf("AddBatch rows = %v", rows)
	}
}
