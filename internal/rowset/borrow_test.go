package rowset

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"unsafe"

	"dhqp/internal/sqltypes"
)

// cloneVec deep-copies every buffer of v, so a later comparison tells
// whether anything wrote into v.
func cloneVec(v *Vec) Vec {
	c := *v
	c.i64, c.f64, c.str = slices.Clone(v.i64), slices.Clone(v.f64), slices.Clone(v.str)
	c.valid, c.gen = slices.Clone(v.valid), slices.Clone(v.gen)
	return c
}

// payloadData is the address of v's active typed payload.
func payloadData(v *Vec) unsafe.Pointer {
	switch v.Kind() {
	case sqltypes.KindFloat:
		return unsafe.Pointer(unsafe.SliceData(v.Float64s()))
	case sqltypes.KindString:
		return unsafe.Pointer(unsafe.SliceData(v.Strings()))
	}
	return unsafe.Pointer(unsafe.SliceData(v.Int64s()))
}

// TestFillColsBorrows pins when a fill borrows: typed columns at any offset
// without NULLs and at word-aligned offsets with them alias the image;
// generic columns and NULL-bearing ranges at unaligned offsets are copies.
func TestFillColsBorrows(t *testing.T) {
	for _, nullEvery := range []int{0, 7} {
		rows := reuseRows(rand.New(rand.NewSource(3)), 300, nullEvery, -1)
		img := reuseImage(reuseKinds, rows)
		b := NewBatch(MaxBatchSize)
		for _, off := range []int{0, 64, 65, 128} {
			b.FillCols(img, nil, off, 100)
			for j := range reuseKinds {
				v := b.Col(j)
				wantBorrow := img[j].IsTyped() && (!img[j].HasNulls() || off%64 == 0)
				if v.borrowed != wantBorrow {
					t.Errorf("nulls every %d, offset %d, col %d: borrowed = %v, want %v", nullEvery, off, j, v.borrowed, wantBorrow)
				}
				if wantBorrow && payloadData(v) != unsafe.Pointer(uintptr(payloadData(&img[j]))+uintptr(off)*elemSize(v.Kind())) {
					t.Errorf("nulls every %d, offset %d, col %d: a borrowed column does not alias the image", nullEvery, off, j)
				}
				if n, c := v.room(); n != 100 || c != 100 {
					t.Errorf("nulls every %d, offset %d, col %d: window len %d cap %d, want 100 and 100", nullEvery, off, j, n, c)
				}
				for i := 0; i < 100; i++ {
					if got, want := v.Value(i), rows[off+i][j]; got.Kind() != want.Kind() || sqltypes.Compare(got, want) != 0 {
						t.Fatalf("nulls every %d, offset %d, col %d row %d: %v, want %v", nullEvery, off, j, i, got, want)
					}
				}
			}
		}
	}
}

func elemSize(k sqltypes.Kind) uintptr {
	switch k {
	case sqltypes.KindFloat:
		return unsafe.Sizeof(float64(0))
	case sqltypes.KindString:
		return unsafe.Sizeof("")
	}
	return unsafe.Sizeof(int64(0))
}

// TestBorrowedVecWriters drives every writer entry point on a borrowed
// column and demands that the image's bytes stay untouched and that the
// column ends up exactly as an owned copy given the same writes would.
func TestBorrowedVecWriters(t *testing.T) {
	const off, k = 64, 100
	writers := []struct {
		name  string
		write func(v *Vec, img *Vec)
	}{
		{"SetNull", func(v, _ *Vec) { v.SetNull(1) }},
		{"SetValue", func(v, img *Vec) { v.SetValue(2, img.Value(k+5)) }},
		{"SetValue NULL", func(v, _ *Vec) { v.SetValue(3, sqltypes.Null) }},
		{"Gather n<k", func(v, img *Vec) { v.Gather(k/2, img, []int32{0, 150, 7}, false) }},
		{"Gather n==k", func(v, img *Vec) { v.Gather(k, img, []int32{0, 150, 7, -1}, true) }},
		{"grow", func(v, img *Vec) {
			// A producer appending rows writes the grown tail directly.
			v.grow(k/2, k)
			switch v.Kind() {
			case sqltypes.KindFloat:
				clear(v.Float64s()[k/2:])
			case sqltypes.KindString:
				clear(v.Strings()[k/2:])
			default:
				clear(v.Int64s()[k/2:])
			}
		}},
		{"degrade", func(v, _ *Vec) { v.degrade(k / 3) }},
		{"SetValue degrades", func(v, _ *Vec) { v.SetValue(4, sqltypes.NewBool(true)) }},
		{"ResetTyped then refill", func(v, img *Vec) {
			v.ResetTyped(v.Kind(), k)
			switch v.Kind() {
			case sqltypes.KindFloat:
				clear(v.Float64s())
			case sqltypes.KindString:
				clear(v.Strings())
			default:
				clear(v.Int64s())
			}
			v.SetNull(0)
		}},
	}
	for _, nullEvery := range []int{0, 7} {
		rows := reuseRows(rand.New(rand.NewSource(5)), 300, nullEvery, -1)
		img := reuseImage(reuseKinds[:4], rows)
		before := make([]Vec, len(img))
		for j := range img {
			before[j] = cloneVec(&img[j])
		}
		for _, w := range writers {
			for j := range img {
				name := fmt.Sprintf("%s, nulls every %d, col %d (%v)", w.name, nullEvery, j, img[j].Kind())
				var v, owned Vec
				v.borrow(&img[j], off, k)
				owned.copyRange(&img[j], off, k)
				if !v.borrowed || owned.borrowed {
					t.Fatalf("%s: borrowed %v, copy borrowed %v", name, v.borrowed, owned.borrowed)
				}
				w.write(&v, &img[j])
				w.write(&owned, &img[j])
				if !reflect.DeepEqual(img[j], before[j]) {
					t.Fatalf("%s: the write reached the image", name)
				}
				checkSameVec(t, name, &v, &owned)
			}
		}
	}
}

// TestProjectDuplicateOfBorrowed projects one borrowed column twice and
// writes into both copies: each write lands in its own column only.
func TestProjectDuplicateOfBorrowed(t *testing.T) {
	rows := reuseRows(rand.New(rand.NewSource(9)), 200, 5, -1)
	img := reuseImage(reuseKinds[:4], rows)
	before := cloneVec(&img[0])
	b := NewBatch(64)
	b.FillCols(img, nil, 64, 64)
	b.Project([]int{0, 0, 2})
	b.Col(0).SetNull(10)
	b.Col(1).SetValue(11, sqltypes.NewInt(-1))
	if !reflect.DeepEqual(img[0], before) {
		t.Fatal("a write into a projected column reached the image")
	}
	if b.Col(0).Valid(10) {
		t.Fatal("SetNull on column 0 did not land")
	}
	if b.Col(1).Valid(10) != !rows[74][0].IsNull() {
		t.Fatal("SetNull on column 0 reached its duplicate")
	}
	if got := b.Col(0).Value(11); sqltypes.Compare(got, rows[75][0]) != 0 || got.Kind() != rows[75][0].Kind() {
		t.Fatalf("SetValue on column 1 reached column 0: %v, want %v", got, rows[75][0])
	}
}

// TestReleaseDropsBorrowedWindows: after Release a batch holds no window
// onto the image it borrowed from — not in its columns, not in the columns
// a narrowing Project parked behind them, not in Project's scratch — and
// it fills again as before.
func TestReleaseDropsBorrowedWindows(t *testing.T) {
	rows := reuseRows(rand.New(rand.NewSource(11)), 200, 0, -1)
	img := reuseImage(reuseKinds[:4], rows)
	b := NewBatch(64)
	b.FillCols(img, nil, 0, 64)
	b.Project([]int{2, 0})
	b.Release()
	if b.Width() != 0 || b.NumRows() != 0 {
		t.Fatalf("released batch holds %d columns, %d rows", b.Width(), b.NumRows())
	}
	for _, cols := range [][]Vec{b.cols[:cap(b.cols)], b.spare[:cap(b.spare)]} {
		for j := range cols {
			if cols[j].borrowed {
				t.Fatalf("column %d still borrows the image after Release", j)
			}
		}
	}
	b.FillCols(img, nil, 64, 64)
	if b.Len() != 64 || sqltypes.Compare(b.Col(0).Value(0), rows[64][0]) != 0 {
		t.Fatal("a released batch does not fill again")
	}
}

// checkSameVec compares two columns element by element: kind, validity and
// value over their whole length.
func checkSameVec(t *testing.T, name string, got, want *Vec) {
	t.Helper()
	gn, _ := got.room()
	wn, _ := want.room()
	if got.Kind() != want.Kind() || gn != wn {
		t.Fatalf("%s: kind %v len %d, an owned copy has %v len %d", name, got.Kind(), gn, want.Kind(), wn)
	}
	for i := 0; i < gn; i++ {
		g, w := got.Value(i), want.Value(i)
		if g.Kind() != w.Kind() || sqltypes.Compare(g, w) != 0 {
			t.Fatalf("%s: element %d is %v, an owned copy has %v", name, i, g, w)
		}
	}
}
