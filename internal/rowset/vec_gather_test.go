package rowset

import (
	"math/rand"
	"testing"

	"dhqp/internal/sqltypes"
)

// TestVecGather appends seeded runs of gathers — typed sources of every
// payload, with and without NULLs, generic sources, negative indices — to
// one column and checks every element against the values boxed one at a
// time, and the column's kind against the rule: the first source's kind,
// generic for good once a source of another kind has been through.
func TestVecGather(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	mk := func(kind sqltypes.Kind, i int) sqltypes.Value {
		switch kind {
		case sqltypes.KindInt:
			return sqltypes.NewInt(int64(i))
		case sqltypes.KindFloat:
			return sqltypes.NewFloat(float64(i) + 0.25)
		case sqltypes.KindString:
			return sqltypes.NewString(string(rune('a' + i%26)))
		case sqltypes.KindDate:
			return sqltypes.NewDateDays(int64(19000 + i))
		}
		return sqltypes.NewBool(i%2 == 0)
	}
	kinds := []sqltypes.Kind{sqltypes.KindInt, sqltypes.KindFloat, sqltypes.KindString, sqltypes.KindDate, sqltypes.KindBool}
	source := func(kind sqltypes.Kind, generic, nulls bool) (Vec, []sqltypes.Value) {
		vals := make([]sqltypes.Value, 50)
		rows := make([]Row, len(vals))
		for i := range vals {
			vals[i] = mk(kind, i)
			if nulls && i%3 == 0 {
				vals[i] = sqltypes.Null
			}
			rows[i] = Row{vals[i]}
		}
		if generic {
			kind = sqltypes.KindNull
		}
		return BuildColVec(kind, rows, 0), vals
	}
	for trial := 0; trial < 200; trial++ {
		var dst Vec
		var want []sqltypes.Value
		wantKind := sqltypes.KindNull
		first := kinds[rng.Intn(len(kinds))]
		for step := 0; step < 6; step++ {
			kind := first
			if rng.Intn(4) == 0 {
				kind = kinds[rng.Intn(len(kinds))]
			}
			generic := rng.Intn(5) == 0
			src, vals := source(kind, generic, rng.Intn(2) == 0)
			neg := rng.Intn(3) == 0
			idxs := make([]int32, rng.Intn(40))
			for k := range idxs {
				idxs[k] = int32(rng.Intn(len(vals)))
				if neg && rng.Intn(4) == 0 {
					idxs[k] = -1
				}
			}
			switch {
			case len(want) == 0:
				wantKind = src.Kind()
			case wantKind != src.Kind():
				wantKind = sqltypes.KindNull
			}
			dst.Gather(len(want), &src, idxs, neg)
			for _, idx := range idxs {
				if idx < 0 {
					want = append(want, sqltypes.Null)
				} else {
					want = append(want, vals[idx])
				}
			}
			if dst.Kind() != wantKind {
				t.Fatalf("trial %d step %d: column is %v, want %v", trial, step, dst.Kind(), wantKind)
			}
			for i, w := range want {
				if got := dst.Value(i); got.Kind() != w.Kind() || sqltypes.Compare(got, w) != 0 {
					t.Fatalf("trial %d step %d: element %d = %v, want %v", trial, step, i, got, w)
				}
			}
		}
	}
}

// TestVecGatherReuse pins the growth promises: a column filled again and
// again to a size it has held — in chunks that split differently each time,
// as a join's output does when its probe batches vary in yield — reallocates
// only while it first reaches that size; and a long run of small appends
// reallocates O(log n) times, not once per append.
func TestVecGatherReuse(t *testing.T) {
	rows := make([]Row, 64)
	for i := range rows {
		rows[i] = Row{sqltypes.NewInt(int64(i))}
	}
	src := BuildColVec(sqltypes.KindInt, rows, 0)
	idxs := make([]int32, 64)
	for i := range idxs {
		idxs[i] = int32(63 - i)
	}
	var dst, store Vec
	grew, held := 0, 0
	grown := func(v *Vec) int {
		if c := cap(v.Int64s()); c != held {
			grew, held = grew+1, c
		}
		return grew
	}
	for split := 8; split < 64; split += 8 {
		dst.Gather(0, &src, idxs[:split], false)
		grown(&dst)
		dst.Gather(split, &src, idxs[split:], split%16 == 0)
		grown(&dst)
	}
	if grew > 2 {
		t.Errorf("seven fills of 64 reallocated %d times, want 2 (the first chunk, then the full size)", grew)
	}
	if got := dst.Int64s()[63]; got != 0 {
		t.Errorf("element 63 = %d, want 0", got)
	}
	grew, held = 0, 0
	for n := 0; n < 64*1000; n += 64 {
		store.Gather(n, &src, idxs, false)
		grown(&store)
	}
	if grew > 12 {
		t.Errorf("1000 appends of 64 reallocated %d times, want about log2(1000)", grew)
	}
	if got := store.Int64s()[64*999+1]; got != 62 {
		t.Errorf("element %d = %d, want 62", 64*999+1, got)
	}
}
