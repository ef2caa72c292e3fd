package rowset

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"dhqp/internal/schema"
	"dhqp/internal/sqltypes"
)

// reuseKinds is the column layout every producer in the reuse test fills:
// one column of each typed payload plus one the producer cannot type.
var reuseKinds = []sqltypes.Kind{sqltypes.KindInt, sqltypes.KindFloat, sqltypes.KindString, sqltypes.KindDate, sqltypes.KindNull}

// reuseRows generates n rows over reuseKinds. nullEvery > 0 puts a NULL in
// every nullEvery-th cell; mismatchAt ≥ 0 puts a string into the int column
// of that row (the kind mismatch that degrades a typed column mid-fill).
func reuseRows(rng *rand.Rand, n, nullEvery, mismatchAt int) []Row {
	rows := make([]Row, n)
	cell := 0
	for i := range rows {
		x := rng.Int63n(1000)
		r := Row{
			sqltypes.NewInt(x), sqltypes.NewFloat(float64(x) / 8), sqltypes.NewString(fmt.Sprint("s", x)),
			sqltypes.NewDateDays(20000 + x), sqltypes.NewInt(x),
		}
		if i%2 == 1 {
			r[4] = sqltypes.NewString("mixed") // the untyped column really is mixed
		}
		for j := range r {
			if cell++; nullEvery > 0 && cell%nullEvery == 0 {
				r[j] = sqltypes.Null
			}
		}
		if i == mismatchAt {
			r[0] = sqltypes.NewString("not an int")
		}
		rows[i] = r
	}
	return rows
}

// reuseImage builds the columnar image of rows, as storage does.
// genericKinds is reuseKinds' width of KindNull: the producers fill
// generic columns under it.
var genericKinds = make([]sqltypes.Kind, len(reuseKinds))

func reuseImage(kinds []sqltypes.Kind, rows []Row) []Vec {
	img := make([]Vec, len(kinds))
	for j, k := range kinds {
		img[j] = BuildColVec(k, rows, j)
	}
	return img
}

// storeOf gathers rows, through their image, into a store.
func storeOf(kinds []sqltypes.Kind, rows []Row) *Store {
	ids := make([]int32, len(rows))
	for i := range ids {
		ids[i] = int32(i)
	}
	var s Store
	s.Reset(len(kinds))
	s.Add(reuseImage(kinds, rows), nil, ids)
	return &s
}

// kindCols names one column per kind.
func kindCols(kinds []sqltypes.Kind) []schema.Column {
	cols := make([]schema.Column, len(kinds))
	for j, k := range kinds {
		cols[j] = schema.Column{Name: fmt.Sprint("c", j), Kind: k}
	}
	return cols
}

// reuseFill is one randomly chosen producer call; applying it to a reused
// batch and to a fresh one must leave both holding the same rows.
type reuseFill struct {
	name string
	fill func(b *Batch)
	want []Row // the rows the fill must yield, projected
}

func randomFill(rng *rand.Rand, capRows int) reuseFill {
	sizes := []int{0, 1, 7, 63, 64, 65, 1024}
	n := sizes[rng.Intn(len(sizes))]
	if n > capRows {
		n = capRows
	}
	nullEvery := []int{0, 3, 17}[rng.Intn(3)]
	mismatchAt := -1
	if n > 0 && rng.Intn(4) == 0 {
		mismatchAt = rng.Intn(n)
	}
	var proj []int
	switch rng.Intn(3) {
	case 1:
		proj = []int{2, 0} // reordered, non-prefix
	case 2:
		proj = []int{3} // a single column
	}
	typed := rng.Intn(4) != 0
	kinds := reuseKinds
	if !typed {
		kinds = genericKinds
	}
	project := func(rows []Row) []Row {
		if proj == nil {
			return rows
		}
		out := make([]Row, len(rows))
		for i, r := range rows {
			out[i] = make(Row, len(proj))
			for j, ord := range proj {
				out[i][j] = r[ord]
			}
		}
		return out
	}
	name := func(producer string) string {
		return fmt.Sprintf("%s n=%d nullEvery=%d mismatchAt=%d proj=%v typed=%v", producer, n, nullEvery, mismatchAt, proj, typed)
	}
	switch rng.Intn(5) {
	case 0:
		// A window of a larger image at an aligned or unaligned offset.
		off := []int{0, 64, 5, 77}[rng.Intn(4)]
		all := reuseRows(rng, off+n+9, nullEvery, mismatchAt)
		img := reuseImage(kinds, all)
		return reuseFill{name("FillCols"), func(b *Batch) {
			b.FillCols(img, proj, off, n)
		}, project(all[off : off+n])}
	case 1:
		// A store's copying emit from an offset: the refilling buffers' fill.
		proj = nil
		off := []int{0, 5}[rng.Intn(2)]
		all := reuseRows(rng, off+n, nullEvery, mismatchAt)
		st := storeOf(kinds, all)
		return reuseFill{name("Store.Emit"), func(b *Batch) {
			st.Emit(b, off)
		}, all[off:]}
	case 2:
		rows := reuseRows(rng, n, nullEvery, mismatchAt)
		return reuseFill{name("ResetTyped+AppendRow"), func(b *Batch) {
			b.ResetTyped(kinds)
			for _, r := range rows {
				b.AppendRow(r)
			}
		}, rows}
	case 3:
		rows := reuseRows(rng, n, nullEvery, mismatchAt)
		width := len(reuseKinds)
		if proj != nil {
			width = len(proj)
		}
		return reuseFill{name("Reset+Append"), func(b *Batch) {
			b.Reset(width)
			for _, r := range project(rows) {
				b.AppendRow(r)
			}
		}, project(rows)}
	default:
		rows := reuseRows(rng, n, nullEvery, mismatchAt)
		return reuseFill{name("Materialized.NextBatch"), func(b *Batch) {
			if err := NewMaterialized(kindCols(kinds), rows).NextBatch(b); err != nil && n > 0 {
				panic(err)
			}
			if n == 0 {
				b.Reset(len(reuseKinds))
			}
		}, rows}
	}
}

// checkBatch compares every cell of got against want and against the same
// fill applied to a fresh batch: value, exact kind, validity, storage mode.
func checkBatch(t *testing.T, step string, got, fresh *Batch, want []Row) {
	t.Helper()
	if got.NumRows() != len(want) || got.Len() != len(want) || fresh.NumRows() != len(want) {
		t.Fatalf("%s: reused batch has %d rows (%d live), fresh %d, want %d", step, got.NumRows(), got.Len(), fresh.NumRows(), len(want))
	}
	if got.Width() != fresh.Width() {
		t.Fatalf("%s: width %d, fresh %d", step, got.Width(), fresh.Width())
	}
	if idx := got.Indices(); len(idx) != len(want) || (len(idx) > 0 && idx[len(idx)-1] != len(want)-1) {
		t.Fatalf("%s: identity indices %v for %d rows", step, idx, len(want))
	}
	for j := 0; j < got.Width(); j++ {
		g, f := got.Col(j), fresh.Col(j)
		if g.Kind() != f.Kind() || g.HasNulls() != f.HasNulls() {
			t.Fatalf("%s col %d: kind %v hasNulls %v, fresh %v %v", step, j, g.Kind(), g.HasNulls(), f.Kind(), f.HasNulls())
		}
		for i, r := range want {
			gv, fv := g.Value(i), f.Value(i)
			if gv.Kind() != r[j].Kind() || sqltypes.Compare(gv, r[j]) != 0 || gv.Kind() != fv.Kind() || sqltypes.Compare(gv, fv) != 0 {
				t.Fatalf("%s col %d row %d: got %v (%v), fresh %v (%v), want %v (%v)", step, j, i, gv, gv.Kind(), fv, fv.Kind(), r[j], r[j].Kind())
			}
			if g.Valid(i) != !r[j].IsNull() {
				t.Fatalf("%s col %d row %d: Valid = %v for %v", step, j, i, g.Valid(i), r[j])
			}
		}
	}
}

// TestBatchReuseEqualsFresh refills one batch through a random sequence of
// producers and sizes — shrinking then growing again, typed and generic,
// with and without NULLs, degrading mid-fill — and demands after every fill
// exactly what a fresh batch yields. It catches a stale validity word, a
// stale hasNulls, a stale selection and a shorter buffer left behind by a
// smaller fill.
func TestBatchReuseEqualsFresh(t *testing.T) {
	for _, capRows := range []int{1, 3, 64, 1024} {
		for seed := int64(1); seed <= 8; seed++ {
			rng := rand.New(rand.NewSource(seed*100 + int64(capRows)))
			reused := NewBatch(capRows)
			for step := 0; step < 60; step++ {
				f := randomFill(rng, capRows)
				if rng.Intn(3) == 0 && reused.NumRows() > 1 {
					reused.SetSelection([]int{0}) // a consumer's leftover selection
				}
				f.fill(reused)
				fresh := NewBatch(capRows)
				f.fill(fresh)
				checkBatch(t, fmt.Sprintf("cap %d seed %d step %d %s", capRows, seed, step, f.name), reused, fresh, f.want)
			}
		}
	}
}

// TestSharedImageConcurrentScans has several scans fill their own reused
// batches from one columnar image at once, borrowing its vectors (the race
// detector checks the image is only read).
func TestSharedImageConcurrentScans(t *testing.T) {
	all := reuseRows(rand.New(rand.NewSource(7)), 3000, 5, -1)
	imgs := [][]Vec{reuseImage(reuseKinds, all), reuseImage(genericKinds, all)}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			b, fresh := NewBatch(256), NewBatch(256)
			img := imgs[g%2]
			for step := 0; step < 200; step++ {
				k := 1 + rng.Intn(256)
				off := rng.Intn(len(all) - k)
				b.FillCols(img, []int{1, 0, 4}, off, k)
				fresh.FillCols(img, []int{1, 0, 4}, off, k)
				for _, i := range []int{0, k / 2, k - 1} {
					for j, ord := range []int{1, 0, 4} {
						got, want := b.Col(j).Value(i), all[off+i][ord]
						if got.Kind() != want.Kind() || sqltypes.Compare(got, want) != 0 || sqltypes.Compare(got, fresh.Col(j).Value(i)) != 0 {
							t.Errorf("scan %d step %d col %d row %d: got %v, want %v", g, step, j, i, got, want)
							return
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestBatchResetAllocatesNothing pins the sizing contract's floor: once a
// batch has held a width, Reset and ResetTyped allocate nothing, and a
// refill no larger than an earlier one reuses its buffers.
func TestBatchResetAllocatesNothing(t *testing.T) {
	st := storeOf(reuseKinds, reuseRows(rand.New(rand.NewSource(1)), 100, 3, -1))
	b := NewBatch(1024)
	st.Emit(b, 0)
	if a := testing.AllocsPerRun(100, func() { b.Reset(len(reuseKinds)) }); a != 0 {
		t.Errorf("Reset allocates %.1f per call, want 0", a)
	}
	if a := testing.AllocsPerRun(100, func() { b.ResetTyped(reuseKinds) }); a != 0 {
		t.Errorf("ResetTyped allocates %.1f per call, want 0", a)
	}
	if a := testing.AllocsPerRun(100, func() { st.Emit(b, 60) }); a != 0 {
		t.Errorf("a smaller refill allocates %.1f per call, want 0", a)
	}
	// A fresh batch's one-row fill is sized for one row, whatever the ceiling.
	big := NewBatch(4096)
	st.Emit(big, 99)
	if c := cap(big.Col(0).Int64s()); c != 1 {
		t.Errorf("one-row fill under a 4096-row ceiling sized its column for %d rows", c)
	}
}
