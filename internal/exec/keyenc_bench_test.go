package exec

import (
	"io"
	"testing"

	"dhqp/internal/rowset"
	"dhqp/internal/sqltypes"
)

// BenchmarkHashKeyEncoding measures the iterator-scoped scratch encoder the
// hash join, batch loop join and hash aggregate build their keys with. Run
// with -benchmem: neither encoding nor probing allocates.
func BenchmarkHashKeyEncoding(b *testing.B) {
	row := rowset.Row{sqltypes.NewInt(42), sqltypes.NewString("nation"), sqltypes.NewFloat(3.5)}
	positions := []int{0, 1, 2}

	b.Run("keyEnc", func(b *testing.B) {
		b.ReportAllocs()
		var enc keyEnc
		for i := 0; i < b.N; i++ {
			k, ok := enc.encode(row, positions)
			if !ok || len(k) == 0 {
				b.Fatal("bad key")
			}
		}
	})

	// The shape that matters end-to-end: probing a populated hash table.
	// m[string(scratch)] compiles to a zero-allocation lookup.
	table := map[string]int32{}
	var enc keyEnc
	if kb, ok := enc.encode(row, positions); ok {
		table[string(kb)] = 7
	}
	b.Run("keyEnc-probe", func(b *testing.B) {
		b.ReportAllocs()
		var hits int
		for i := 0; i < b.N; i++ {
			kb, _ := enc.encode(row, positions)
			if table[string(kb)] == 7 {
				hits++
			}
		}
		if hits != b.N {
			b.Fatal("missed probes")
		}
	})
}

// BenchmarkHashKeyEncodingTyped contrasts key building that gathers a boxed
// row first (the pre-typed batch path) against encodeVec hashing straight
// off typed column payloads. Both produce byte-identical keys.
func BenchmarkHashKeyEncodingTyped(b *testing.B) {
	const n = 1024
	kinds := []sqltypes.Kind{sqltypes.KindInt, sqltypes.KindString, sqltypes.KindFloat}
	batch := rowset.NewBatch(n)
	batch.ResetTyped(kinds)
	for i := 0; i < n; i++ {
		batch.AppendRow(rowset.Row{sqltypes.NewInt(int64(i)), sqltypes.NewString("nation"), sqltypes.NewFloat(float64(i) + 0.5)})
	}
	positions := []int{0, 1, 2}
	cols := batch.Cols()

	b.Run("gather-boxed", func(b *testing.B) {
		b.ReportAllocs()
		var enc keyEnc
		var rbuf rowset.Row
		for i := 0; i < b.N; i++ {
			rbuf = batch.RowAt(i%n, rbuf)
			if k, ok := enc.encode(rbuf, positions); !ok || len(k) == 0 {
				b.Fatal("bad key")
			}
		}
	})
	b.Run("typed-vec", func(b *testing.B) {
		b.ReportAllocs()
		var enc keyEnc
		for i := 0; i < b.N; i++ {
			if k, ok := enc.encodeVec(cols, i%n, positions); !ok || len(k) == 0 {
				b.Fatal("bad key")
			}
		}
	})
}

// replayIter is a resettable row-only iterator over fixed rows.
type replayIter struct {
	rows []rowset.Row
	pos  int
}

func (r *replayIter) Open() error { r.pos = 0; return nil }
func (r *replayIter) Next() (rowset.Row, error) {
	if r.pos >= len(r.rows) {
		return nil, io.EOF
	}
	r.pos++
	return r.rows[r.pos-1], nil
}
func (r *replayIter) Close() error { return nil }

// TestRowToBatchScratchReuse pins the adapter's scratch-reuse fix: after a
// warmup fill, refilling a batch through the row→batch adapter allocates
// nothing — the column vectors, their value buffers, and the identity
// selection all recover from capacity across Reset/AppendRow cycles.
func TestRowToBatchScratchReuse(t *testing.T) {
	rows := make([]rowset.Row, 64)
	for i := range rows {
		rows[i] = rowset.Row{sqltypes.NewInt(int64(i)), sqltypes.NewString("x"), sqltypes.NewFloat(1.5)}
	}
	src := &replayIter{rows: rows}
	a := &rowToBatch{it: src}
	b := rowset.NewBatch(32)
	if err := a.NextBatch(b); err != nil { // warmup sizes the vectors
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		src.pos = 0
		if err := a.NextBatch(b); err != nil {
			t.Fatal(err)
		}
		if b.NumRows() != 32 {
			t.Fatalf("filled %d rows, want 32", b.NumRows())
		}
	})
	if allocs > 0 {
		t.Errorf("rowToBatch refill allocates %.1f per call, want 0", allocs)
	}
}
