package exec

import (
	"io"
	"testing"

	"dhqp/internal/rowset"
	"dhqp/internal/sqltypes"
)

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
