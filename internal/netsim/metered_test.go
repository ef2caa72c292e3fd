package netsim

import (
	"context"
	"errors"
	"io"
	"slices"
	"testing"

	"dhqp/internal/rowset"
	"dhqp/internal/schema"
	"dhqp/internal/sqltypes"
)

func sampleRowset(n int) *rowset.Materialized {
	cols := []schema.Column{{Name: "a", Kind: sqltypes.KindInt}}
	rows := make([]rowset.Row, n)
	for i := range rows {
		rows[i] = rowset.Row{sqltypes.NewInt(int64(i))}
	}
	return rowset.NewMaterialized(cols, rows)
}

// drainBatches fetches rs to its end with the given fetch size and returns
// the size of every fetch.
func drainBatches(t *testing.T, rs rowset.Rowset, fetch int) []int {
	t.Helper()
	b := rowset.NewBatch(fetch)
	var fills []int
	for {
		err := rs.NextBatch(b)
		if err == io.EOF {
			return fills
		}
		if err != nil {
			t.Fatal(err)
		}
		fills = append(fills, b.Len())
	}
}

// One call per fetch the consumer makes, sized by the consumer's batch:
// the same ten rows cost three round trips at fetch size 4 and one at the
// default, and the same rows and bytes either way.
func TestMeteredChargesOneCallPerFetch(t *testing.T) {
	for _, tc := range []struct {
		fetch int
		fills []int
	}{
		{4, []int{4, 4, 2}},
		{10, []int{10}}, // an exact fit: the empty fetch that finds EOF is free
		{0, []int{10}},
	} {
		link := &Link{}
		rs := Metered(sampleRowset(10), link)
		fills := drainBatches(t, rs, tc.fetch)
		rs.Close()
		if len(fills) != len(tc.fills) {
			t.Fatalf("fetch %d: fills = %v, want %v", tc.fetch, fills, tc.fills)
		}
		for i := range fills {
			if fills[i] != tc.fills[i] {
				t.Fatalf("fetch %d: fills = %v, want %v", tc.fetch, fills, tc.fills)
			}
		}
		s := link.Stats()
		if s.Calls != int64(len(tc.fills)) || s.Rows != 10 {
			t.Errorf("fetch %d: calls = %d rows = %d, want %d and 10", tc.fetch, s.Calls, s.Rows, len(tc.fills))
		}
		if s.Bytes != 10*10 { // 2 header + 8 int per row
			t.Errorf("fetch %d: bytes = %d, want 100", tc.fetch, s.Bytes)
		}
	}
}

// The first fetch is the round trip that opens the rowset: it crosses even
// when it finds nothing, carries the request bytes, and a fault on it
// reaches the caller instead of the end of the rows.
func TestMeteredFirstFetchAlwaysCrosses(t *testing.T) {
	link := &Link{}
	rs := MeteredCtx(context.Background(), sampleRowset(0), link, 40)
	if fills := drainBatches(t, rs, 4); len(fills) != 0 {
		t.Fatalf("fills = %v from an empty rowset", fills)
	}
	if s := link.Stats(); s.Calls != 1 || s.Rows != 0 || s.Bytes != 40 {
		t.Errorf("empty result: %+v, want 1 call carrying the 40 request bytes", s)
	}
	link.SetDown(true)
	err := Metered(sampleRowset(0), link).NextBatch(rowset.NewBatch(0))
	if err == nil || err == io.EOF {
		t.Errorf("empty first fetch over a downed link returned %v, want the link's error", err)
	}
}

// The batch's byte count is the sum of its rows' encoded sizes, typed or
// boxed, NULLs and strings included.
func TestMeteredBytesMatchRowEncoding(t *testing.T) {
	cols := []schema.Column{{Name: "i", Kind: sqltypes.KindInt}, {Name: "s", Kind: sqltypes.KindString},
		{Name: "f", Kind: sqltypes.KindFloat}, {Name: "b", Kind: sqltypes.KindBool}}
	var rows []rowset.Row
	want := 0
	for i := 0; i < 100; i++ {
		r := rowset.Row{sqltypes.NewInt(int64(i)), sqltypes.NewString("v" + string(rune('a'+i%7))),
			sqltypes.NewFloat(float64(i) / 3), sqltypes.NewBool(i%2 == 0)}
		if i%5 == 0 {
			r[i%4] = sqltypes.Null
		}
		rows = append(rows, r)
		want += r.EncodedSize()
	}
	generic := make([]schema.Column, len(cols)) // KindNull: generic columns
	for _, typed := range []bool{false, true} {
		b := rowset.NewBatch(0)
		if typed {
			rowset.NewMaterialized(cols, rows).NextBatch(b)
		} else {
			rowset.NewMaterialized(generic, rows).NextBatch(b)
		}
		if got := b.EncodedSize(); got != want {
			t.Errorf("typed=%v: EncodedSize = %d, want %d", typed, got, want)
		}
	}
	link := &Link{}
	rs := Metered(rowset.NewMaterialized(cols, rows), link)
	drainBatches(t, rs, 32)
	if s := link.Stats(); s.Bytes != int64(want) || s.Calls != 4 {
		t.Errorf("link saw %d bytes in %d calls, want %d in 4", s.Bytes, s.Calls, want)
	}
}

// A fetch's rows come out of one call that carries them all, and an early
// Close owes nothing.
func TestMeteredRowsComeOutOfFetches(t *testing.T) {
	link := &Link{}
	rs := Metered(sampleRowset(3), link)
	b := rowset.NewBatch(0)
	if err := rs.NextBatch(b); err != nil || b.Len() != 3 || b.RowAt(1, nil)[0].Int() != 1 {
		t.Fatalf("fetch = %d rows, %v", b.Len(), err)
	}
	if s := link.Stats(); s.Rows != 3 || s.Calls != 1 {
		t.Errorf("after one fetch: %+v, want the whole 3-row fetch in 1 call", s)
	}
	rs.Close()
	if s := link.Stats(); s.Rows != 3 || s.Calls != 1 {
		t.Errorf("Close charged the link: %+v", s)
	}
}

// A metered fill through a projection — reordered, duplicated, narrower —
// reads the projected rows of every fetch at the calls and bytes of the
// full fetches.
func TestMeteredFillBatchProjects(t *testing.T) {
	cols := []schema.Column{{Name: "a", Kind: sqltypes.KindInt}, {Name: "b", Kind: sqltypes.KindString}}
	var rows []rowset.Row
	for i := int64(0); i < 10; i++ {
		rows = append(rows, rowset.Row{sqltypes.NewInt(i), sqltypes.NewString(string(rune('a' + i)))})
	}
	for _, proj := range [][]int{{1, 0}, {0, 0, 1}, {1}} {
		link := &Link{}
		rs := Metered(rowset.NewMaterialized(cols, rows), link)
		b := rowset.NewBatch(4)
		var got []string
		for {
			err := rowset.FillBatch(rs, b, proj)
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < b.Len(); i++ {
				got = append(got, b.RowAt(i, nil).String())
			}
		}
		var want []string
		for _, r := range rows {
			p := make(rowset.Row, len(proj))
			for j, src := range proj {
				p[j] = r[src]
			}
			want = append(want, p.String())
		}
		if !slices.Equal(got, want) {
			t.Errorf("proj %v: read %v, want %v", proj, got, want)
		}
		if s := link.Stats(); s.Calls != 3 || s.Rows != 10 || s.Bytes != 10*(2+8+5) {
			t.Errorf("proj %v: link %+v, want 3 calls of the full rows", proj, s)
		}
	}
}

// scriptRowset serves its rows 64 per fetch with each fetch's first row
// deselected, and fails its third fetch after filling the batch with a
// poison row.
type scriptRowset struct {
	rows       []rowset.Row
	pos, calls int
}

var errScript = errors.New("scripted fetch failure")

func (s *scriptRowset) Columns() []schema.Column { return nil }
func (s *scriptRowset) Close() error             { return nil }

func (s *scriptRowset) NextBatch(b *rowset.Batch) error {
	s.calls++
	b.Reset(1)
	if s.calls == 3 {
		b.AppendRow(rowset.Row{sqltypes.NewString("poison")})
		return errScript
	}
	for ; s.pos < len(s.rows) && b.NumRows() < 64; s.pos++ {
		b.AppendRow(s.rows[s.pos])
	}
	if b.NumRows() == 0 {
		return io.EOF
	}
	if b.NumRows() > 2 {
		b.SetSelection(b.Indices()[1:])
	}
	return nil
}

// A reader of a metered rowset gets each fetched row once, in order,
// across fetch boundaries and selections; a failed fetch surfaces as an
// error instead of rows, and the next call fetches again.
func TestMeteredRowsServeEveryRowOnce(t *testing.T) {
	src := &scriptRowset{rows: sampleRowset(200).Rows()}
	rs := Metered(src, &Link{})
	b := rowset.NewBatch(0)
	var got []int64
	failed := false
	for {
		err := rs.NextBatch(b)
		if err == io.EOF {
			break
		}
		if err == errScript {
			failed = true
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < b.Len(); i++ {
			got = append(got, b.RowAt(i, nil)[0].Int())
		}
	}
	var want []int64
	for i := int64(0); i < 200; i++ {
		if i%64 != 0 {
			want = append(want, i)
		}
	}
	if !failed || !slices.Equal(got, want) {
		t.Fatalf("failure seen = %v; served %v, want %v", failed, got, want)
	}
}

// A fetch that fails on the wire delivers nothing, and the rows it would
// have carried are not counted as shipped.
func TestMeteredFailedFetchShipsNothing(t *testing.T) {
	link := &Link{}
	link.SetFaults(Faults{FailAfter: 1})
	rs := Metered(sampleRowset(10), link)
	b := rowset.NewBatch(4)
	if err := rs.NextBatch(b); err != nil {
		t.Fatal(err)
	}
	if err := rs.NextBatch(b); err == nil {
		t.Fatal("second fetch crossed a dead link")
	}
	if s := link.Stats(); s.Rows != 4 || s.Calls != 2 || s.Faults != 1 {
		t.Errorf("stats = %+v, want 4 rows, 2 calls, 1 fault", s)
	}
	// A first fetch over a dead link surfaces the link's error.
	link2 := &Link{}
	link2.SetFaults(Faults{Down: true})
	if err := Metered(sampleRowset(3), link2).NextBatch(b); err == nil {
		t.Error("a fetch over a dead link returned rows")
	}
}

func TestMeteredNilLinkPassThrough(t *testing.T) {
	src := sampleRowset(2)
	if Metered(src, nil) != rowset.Rowset(src) {
		t.Error("nil link should return the source unchanged")
	}
}

func TestMeteredColumns(t *testing.T) {
	rs := Metered(sampleRowset(1), &Link{})
	if len(rs.Columns()) != 1 {
		t.Error("columns lost")
	}
	rs.Close()
}
