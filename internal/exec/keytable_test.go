package exec

import (
	"fmt"
	"math"
	"testing"

	"dhqp/internal/rowset"
	"dhqp/internal/sqltypes"
)

// hashSample covers every kind and the numeric edges of Compare: INT vs
// FLOAT of one value, BIT vs INT, -0.0, integers beyond 2^53 that round to
// one double, the int64 extremes and non-finite floats.
func hashSample() []sqltypes.Value {
	vs := []sqltypes.Value{
		sqltypes.Null,
		sqltypes.NewBool(true), sqltypes.NewBool(false),
		sqltypes.NewString(""), sqltypes.NewString("hello"), sqltypes.NewString("hellp"),
		sqltypes.NewDateDays(0), sqltypes.NewDateDays(10957),
		sqltypes.NewFloat(math.Copysign(0, -1)), sqltypes.NewFloat(0.5), sqltypes.NewFloat(math.Pi),
		sqltypes.NewFloat(1 << 53), sqltypes.NewFloat(1 << 63), sqltypes.NewFloat(-(1 << 63)),
		sqltypes.NewFloat(math.Inf(1)), sqltypes.NewFloat(math.Inf(-1)), sqltypes.NewFloat(1e300),
		sqltypes.NewInt(math.MaxInt64), sqltypes.NewInt(math.MinInt64),
		sqltypes.NewInt(1<<53 - 1), sqltypes.NewInt(1 << 53), sqltypes.NewInt(1<<53 + 1), sqltypes.NewInt(1<<53 + 2),
	}
	for i := int64(-3); i <= 3; i++ {
		vs = append(vs, sqltypes.NewInt(i), sqltypes.NewFloat(float64(i)))
	}
	return vs
}

// TestHashConsistentWithEqual checks the one property the key table needs of
// a hash: values that compare equal hash equal, boxed or typed.
func TestHashConsistentWithEqual(t *testing.T) {
	vs := hashSample()
	for _, x := range vs {
		for _, y := range vs {
			if sqltypes.Equal(x, y) && hashValue(&x) != hashValue(&y) {
				t.Errorf("equal values %v (%v) and %v (%v) hash differently", x, x.Kind(), y, y.Kind())
			}
		}
	}
	// A typed column hashes its payloads as hashValue hashes the boxed values,
	// so one table may take keys from typed and generic batches alike.
	for _, kind := range []sqltypes.Kind{sqltypes.KindInt, sqltypes.KindBool, sqltypes.KindFloat, sqltypes.KindString, sqltypes.KindDate} {
		var rows []rowset.Row
		for _, v := range vs {
			if v.Kind() == kind || v.IsNull() {
				rows = append(rows, rowset.Row{v, v})
			}
		}
		b := rowset.NewBatch(len(rows))
		storeOf([]sqltypes.Kind{kind, sqltypes.KindNull}, rows).Emit(b, 0)
		if !b.Col(0).IsTyped() || b.Col(1).IsTyped() {
			t.Fatalf("%v: want one typed and one generic column", kind)
		}
		typed := hashKeys(nil, b.Cols(), []int{0}, b.Indices())
		boxed := hashKeys(nil, b.Cols(), []int{1}, b.Indices())
		for i, r := range rows {
			if typed[i] != boxed[i] || typed[i] != hashValue(&r[0]) {
				t.Errorf("%v %v: typed %x, generic %x, value %x", kind, r[0], typed[i], boxed[i], hashValue(&r[0]))
			}
		}
	}
}

func TestHashSpread(t *testing.T) {
	seen := map[uint64]bool{}
	for i := int64(0); i < 1000; i++ {
		v := sqltypes.NewInt(i)
		seen[hashValue(&v)] = true
	}
	if len(seen) < 990 {
		t.Errorf("poor hash spread: %d unique of 1000", len(seen))
	}
}

func TestFloatHashNonInteger(t *testing.T) {
	a, b := sqltypes.NewFloat(math.Pi), sqltypes.NewFloat(math.Pi)
	if hashValue(&a) != hashValue(&b) {
		t.Error("identical non-integer floats hash differently")
	}
}

// TestKeyTableChains files ids under few hashes, so that chains are long and
// the slot array grows under them, and walks every chain back.
func TestKeyTableChains(t *testing.T) {
	var tab keyTable
	for round := 0; round < 2; round++ { // the second round reuses the memory
		tab.reset()
		const n, hashes = 5000, 37
		for i := 0; i < n; i++ {
			if id := tab.insert(uint64(i%hashes) * 0x9e3779b97f4a7c15); id != int32(i) {
				t.Fatalf("insert %d returned id %d", i, id)
			}
		}
		if tab.len() != n {
			t.Fatalf("len %d, want %d", tab.len(), n)
		}
		for h := 0; h < hashes; h++ {
			want := int32(h)
			for id := tab.find(uint64(h) * 0x9e3779b97f4a7c15); id >= 0; id = tab.next[id] {
				if id != want {
					t.Fatalf("hash %d: chain reads %d, want %d", h, id, want)
				}
				want += hashes
			}
			if want < n {
				t.Fatalf("hash %d: chain stops before %d", h, want)
			}
		}
		if id := tab.find(12345); id != -1 {
			t.Fatalf("an absent hash found id %d", id)
		}
	}
}

// BenchmarkKeyTable times a probe of 1 024-row batches against 1 000 stored
// keys, INT and STRING: one hashing pass per batch, then a find and a value
// confirmation per row. Set-up happens outside the timer, and a probe that
// allocates fails the run.
func BenchmarkKeyTable(b *testing.B) {
	for _, kind := range []sqltypes.Kind{sqltypes.KindInt, sqltypes.KindString} {
		b.Run(kind.String(), func(b *testing.B) {
			key := func(i int) sqltypes.Value {
				if kind == sqltypes.KindString {
					return sqltypes.NewString(fmt.Sprintf("dim%04d", i))
				}
				return sqltypes.NewInt(int64(i))
			}
			const stored, batch = 1000, 1024
			var st, in []rowset.Row
			for i := 0; i < stored; i++ {
				st = append(st, rowset.Row{key(i)})
			}
			for i := 0; i < batch; i++ {
				in = append(in, rowset.Row{key(i * 7 % stored)})
			}
			kinds := []sqltypes.Kind{kind}
			sb, pb := rowset.NewBatch(stored), rowset.NewBatch(batch)
			storeOf(kinds, st).Emit(sb, 0)
			storeOf(kinds, in).Emit(pb, 0)
			var tab keyTable
			for _, h := range hashKeys(nil, sb.Cols(), []int{0}, sb.Indices()) {
				tab.insert(h)
			}
			var eq keyEq
			var hs []uint64
			pos := []int{0}
			probe := func() {
				hs = hashKeys(hs, pb.Cols(), pos, pb.Indices())
				eq.bind(pb.Cols(), pos, sb.Cols(), pos)
				for k, p := range pb.Indices() {
					if eq.match(&tab, p, tab.find(hs[k])) < 0 {
						b.Fatalf("row %d found no key", p)
					}
				}
			}
			probe()
			if allocs := testing.AllocsPerRun(20, probe); allocs != 0 {
				b.Fatalf("a probe batch allocates %.1f times, want 0", allocs)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				probe()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch), "ns/row")
		})
	}
}
