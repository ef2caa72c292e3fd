package rowset

import (
	"math/rand"
	"testing"

	"dhqp/internal/sqltypes"
)

// liveRows gathers the batch's live rows.
func liveRows(b *Batch) []Row {
	out := make([]Row, b.Len())
	for i := range out {
		out[i] = b.RowAt(i, nil)
	}
	return out
}

func sameRows(a, b []Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if sqltypes.Compare(a[i][j], b[i][j]) != 0 || a[i][j].Kind() != b[i][j].Kind() {
				return false
			}
		}
	}
	return true
}

// TestProjectMovesVectors: Project(m) leaves the batch reading exactly what
// a row-by-row remap would build — narrowed, reordered, widened by naming a
// column twice, under a selection, typed or boxed — and a batch that has
// been projected, swapped and refilled keeps no buffer in two places: what
// is read after the next fill is that fill.
func TestProjectMovesVectors(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	a, b := NewBatch(64), NewBatch(64)
	for iter := 0; iter < 3000; iter++ {
		rows := reuseRows(rng, rng.Intn(65), []int{0, 3}[rng.Intn(2)], -1)
		kinds := reuseKinds
		if rng.Intn(3) == 0 {
			kinds = genericKinds
		}
		storeOf(kinds, rows).Emit(a, 0)
		if len(rows) > 1 && rng.Intn(2) == 0 {
			var sel []int
			for i := range rows {
				if rng.Intn(3) != 0 {
					sel = append(sel, i)
				}
			}
			a.SetSelection(sel)
			kept := rows[:0:0]
			for _, i := range sel {
				kept = append(kept, rows[i])
			}
			rows = kept
		}
		m := make([]int, 1+rng.Intn(7))
		for j := range m {
			m[j] = rng.Intn(len(reuseKinds))
		}
		if rng.Intn(5) == 0 {
			m = []int{0, 1, 2, 3, 4} // identity
		}
		want := make([]Row, len(rows))
		for i, r := range rows {
			want[i] = make(Row, len(m))
			for j, src := range m {
				want[i][j] = r[src]
			}
		}
		wantBytes := 0
		for _, r := range want {
			wantBytes += r.EncodedSize()
		}
		a.Project(m)
		if got := liveRows(a); a.Width() != len(m) || !sameRows(got, want) {
			t.Fatalf("iter %d: Project(%v) reads %v, want %v", iter, m, got, want)
		}
		if got := a.EncodedSize(); got != wantBytes {
			t.Fatalf("iter %d: EncodedSize = %d, want %d", iter, got, wantBytes)
		}
		// Hand the batch over and fill the other side of the swap: the
		// handed-over rows must not move.
		a.Swap(b)
		storeOf(reuseKinds, reuseRows(rng, 64, 0, -1)).Emit(a, 0)
		if got := liveRows(b); !sameRows(got, want) {
			t.Fatalf("iter %d: rows changed under a refill of the batch they were swapped out of: %v, want %v", iter, got, want)
		}
	}
}
