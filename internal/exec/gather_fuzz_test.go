package exec

import (
	"testing"

	"dhqp/internal/rowset"
	"dhqp/internal/sqltypes"
)

// fuzzBytes hands out the fuzzer's input a byte at a time, zeros once it
// runs out.
type fuzzBytes []byte

func (b *fuzzBytes) next() int {
	if len(*b) == 0 {
		return 0
	}
	v := (*b)[0]
	*b = (*b)[1:]
	return int(v)
}

// fuzzBatch decodes a batch of up to 24 rows and four columns: typed INT
// (some past 2^53), FLOAT and VARCHAR columns and generic columns that mix
// all three, NULL-heavy, sometimes behind a selection. It returns the batch
// and the rows it holds, physical row i being rows[i].
func fuzzBatch(in *fuzzBytes) (*rowset.Batch, []rowset.Row) {
	n, w := in.next()%25, 1+in.next()%4
	kinds := make([]sqltypes.Kind, w)
	for j := range kinds {
		kinds[j] = []sqltypes.Kind{sqltypes.KindInt, sqltypes.KindFloat, sqltypes.KindString, sqltypes.KindNull}[in.next()%4]
	}
	value := func(kind sqltypes.Kind, x int) sqltypes.Value {
		switch kind {
		case sqltypes.KindInt:
			return sqltypes.NewInt(1<<53*int64(x>>7) + int64(x%4))
		case sqltypes.KindFloat:
			return sqltypes.NewFloat(float64(x%6) / 2)
		case sqltypes.KindString:
			return sqltypes.NewString(string(rune('a' + x%3)))
		}
		return sqltypes.Null
	}
	rows := make([]rowset.Row, n)
	for i := range rows {
		rows[i] = make(rowset.Row, w)
		for j, kind := range kinds {
			x := in.next()
			if kind == sqltypes.KindNull { // generic: any kind in any row
				kind = []sqltypes.Kind{sqltypes.KindInt, sqltypes.KindFloat, sqltypes.KindString}[x%3]
			}
			if x%5 != 0 {
				rows[i][j] = value(kind, x)
			}
		}
	}
	b := rowset.NewBatch(rowset.MaxBatchSize)
	storeOf(kinds, rows).Emit(b, 0)
	if in.next()%2 == 1 {
		var sel []int
		for i := 0; i < n; i++ {
			if in.next()%3 != 0 {
				sel = append(sel, i)
			}
		}
		b.SetSelection(sel)
	}
	return b, rows
}

// same reports whether two values are identical: kind and value.
func same(a, b sqltypes.Value) bool {
	return a.Kind() == b.Kind() && sqltypes.Compare(a, b) == 0
}

// FuzzGatherProject checks the index-driven column paths against a naive
// model of boxed rows: Vec.Gather appends the elements an index list names
// (-1: NULL) in two runs; Batch.Project remaps the columns, a column named
// twice included; and a key table over one column, confirmed by keyEq,
// gives each live row the group of the first earlier row whose key
// compares equal, NULL equal to NULL, as a scan of the rows by
// sqltypes.Compare does.
func FuzzGatherProject(f *testing.F) {
	f.Add([]byte{12, 3, 0, 1, 3, 7, 0, 9, 200, 5, 131, 2, 1, 0, 4})
	f.Add([]byte{24, 1, 3, 1, 128, 129, 130, 0, 5, 128, 1, 1, 1, 2, 3, 4, 9, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		in := fuzzBytes(data)
		b, rows := fuzzBatch(&in)
		live := b.Indices()

		// Gather: column c at a drawn index list, appended in two runs.
		c := in.next() % b.Width()
		idxs := make([]int32, in.next()%40)
		for k := range idxs {
			idxs[k] = -1
			if x := in.next(); len(rows) > 0 && x%4 != 0 {
				idxs[k] = int32(x % len(rows))
			}
		}
		split := 0
		if len(idxs) > 0 {
			split = in.next() % len(idxs)
		}
		var dst rowset.Vec
		dst.Gather(0, b.Col(c), idxs[:split], neg(idxs[:split]))
		dst.Gather(split, b.Col(c), idxs[split:], neg(idxs[split:]))
		for k, idx := range idxs {
			want := sqltypes.Null
			if idx >= 0 {
				want = rows[idx][c]
			}
			if got := dst.Value(k); !same(got, want) {
				t.Fatalf("Gather element %d (row %d of column %d) = %v, want %v", k, idx, c, got, want)
			}
		}

		// The key table groups the live rows by column c.
		var tab keyTable
		var eq keyEq
		keys := make([]rowset.Vec, 1)
		hs := hashKeys(nil, b.Cols(), []int{c}, live)
		one := make([]int32, 1)
		var firsts []rowset.Row // each group's first row
		for k, p := range live {
			eq.bind(b.Cols(), []int{c}, keys, []int{0})
			g := eq.match(&tab, p, tab.find(hs[k]))
			if g < 0 {
				g = tab.insert(hs[k])
				one[0] = int32(p)
				keys[0].Gather(int(g), b.Col(c), one, false)
				firsts = append(firsts, rows[p])
			}
			want := -1
			for i, r := range firsts {
				if sqltypes.Compare(r[c], rows[p][c]) == 0 {
					want = i
					break
				}
			}
			if int(g) != want {
				t.Fatalf("row %d (%v) is in group %d, want %d", p, rows[p][c], g, want)
			}
		}

		// Project: a drawn remap of the columns, repeats allowed.
		m := make([]int, 1+in.next()%5)
		for j := range m {
			m[j] = in.next() % b.Width()
		}
		b.Project(m)
		for i, p := range live {
			got := b.RowAt(i, nil)
			for j, src := range m {
				if !same(got[j], rows[p][src]) {
					t.Fatalf("after Project(%v), live row %d column %d = %v, want %v", m, i, j, got[j], rows[p][src])
				}
			}
		}
	})
}

// neg reports whether an index list names a NULL.
func neg(idxs []int32) bool {
	for _, idx := range idxs {
		if idx < 0 {
			return true
		}
	}
	return false
}
