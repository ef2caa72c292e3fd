package exec

import (
	"hash/maphash"
	"math"

	"dhqp/internal/rowset"
	"dhqp/internal/sqltypes"
)

// Key hashing. Every hashing operator hashes its keys here, one hash per
// kind, and confirms each hash hit by comparing values (keyEq), so a hash
// need only agree with sqltypes.Compare: values that compare equal hash
// equal. INT, BIT and FLOAT compare through their float64 image, so all
// three hash it; 2^53 and 2^53 + 1 therefore collide, and only the value
// comparison tells them apart.

// stringSeed seeds the string hash. It varies per process, so nothing may
// depend on where a key lands in a table: every output order follows entry
// ids, which are assigned in arrival order.
var stringSeed = maphash.MakeSeed()

// nullHash is NULL's hash: a grouping NULL is a key like any other.
const nullHash uint64 = 0x9e3779b97f4a7c15

// hashMul folds the hash of one more key column into a row's hash.
const hashMul uint64 = 0xbf58476d1ce4e5b9

// mix is the 64-bit finalizer of MurmurHash3, a bijection that spreads
// nearby integers over the whole table.
func mix(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// hashFloat hashes a numeric by its float64 image: an integral value as the
// int64 it equals, any other by its bits.
func hashFloat(f float64) uint64 {
	if i := int64(f); float64(i) == f {
		return mix(uint64(i))
	}
	return mix(math.Float64bits(f))
}

// hashInt hashes an INT or BIT payload as the FLOAT it compares equal to,
// and a DATE's days the same way (a DATE equals no number, so sharing their
// hashes costs only a value comparison on a column that mixes the two).
func hashInt(i int64) uint64 { return hashFloat(float64(i)) }

func hashString(s string) uint64 { return maphash.String(stringSeed, s) }

// hashValue hashes a boxed value exactly as the typed passes hash its
// payload.
func hashValue(v *sqltypes.Value) uint64 {
	switch v.Kind() {
	case sqltypes.KindNull:
		return nullHash
	case sqltypes.KindFloat:
		return hashFloat(v.RawFloat())
	case sqltypes.KindString:
		return hashString(v.RawStr())
	default: // Int, Bool, Date share the int64 payload
		return hashInt(v.RawInt())
	}
}

// hashKeys returns hs sized to idxs, hs[k] the hash of row idxs[k]'s values
// in the columns at pos: one pass per column, the kind switch outside the
// row loop.
func hashKeys(hs []uint64, cols []rowset.Vec, pos []int, idxs []int) []uint64 {
	if cap(hs) < len(idxs) {
		hs = make([]uint64, len(idxs))
	}
	hs = hs[:len(idxs)]
	clear(hs)
	for _, p := range pos {
		hashVec(hs, &cols[p], idxs)
	}
	return hs
}

// hashVec folds column v's hash of row idxs[k] into hs[k].
func hashVec(hs []uint64, v *rowset.Vec, idxs []int) {
	nulls := v.HasNulls()
	switch v.Kind() {
	case sqltypes.KindNull:
		g := v.Gen()
		for k, i := range idxs {
			hs[k] = hs[k]*hashMul ^ hashValue(&g[i])
		}
	case sqltypes.KindFloat:
		xs := v.Float64s()
		for k, i := range idxs {
			c := nullHash
			if !nulls || v.Valid(i) {
				c = hashFloat(xs[i])
			}
			hs[k] = hs[k]*hashMul ^ c
		}
	case sqltypes.KindString:
		xs := v.Strings()
		for k, i := range idxs {
			c := nullHash
			if !nulls || v.Valid(i) {
				c = hashString(xs[i])
			}
			hs[k] = hs[k]*hashMul ^ c
		}
	default: // Int, Bool, Date
		xs := v.Int64s()
		for k, i := range idxs {
			c := nullHash
			if !nulls || v.Valid(i) {
				c = hashInt(xs[i])
			}
			hs[k] = hs[k]*hashMul ^ c
		}
	}
}

// keyTable is the hash table under the hash join, the hash aggregate, the
// batch loop join and DISTINCT aggregates. It maps a 64-bit key hash to an
// entry id by open addressing with linear probing, at most half full. Ids
// are handed out 0, 1, 2, … in insertion order, and the ids filed under one
// hash form a chain in that order: next links each to the next, and tails,
// indexed by a chain's head, holds its last id, so filing one more costs
// two int32 writes. The table stores no keys: its owner keeps them by id,
// and a lookup confirms every id it walks by comparing values (keyEq).
type keyTable struct {
	slots       []keySlot
	used        int // occupied slots
	next, tails []int32
}

// keySlot is one open-addressing slot: a hash and its chain's first id + 1
// (0: the slot is empty).
type keySlot struct {
	hash uint64
	head int32
}

// reset empties the table, keeping its memory.
func (t *keyTable) reset() {
	clear(t.slots)
	t.used = 0
	t.next, t.tails = t.next[:0], t.tails[:0]
}

// len reports how many ids the table has handed out.
func (t *keyTable) len() int { return len(t.next) }

// find returns the first id filed under hash h, -1 when none is.
func (t *keyTable) find(h uint64) int32 {
	if t.used == 0 {
		return -1
	}
	mask := uint64(len(t.slots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		s := &t.slots[i]
		if s.head == 0 {
			return -1
		}
		if s.hash == h {
			return s.head - 1
		}
	}
}

// insert files the next id under hash h, at the end of its chain, and
// returns it.
func (t *keyTable) insert(h uint64) int32 {
	id := int32(len(t.next))
	t.next, t.tails = append(t.next, -1), append(t.tails, id)
	if 2*(t.used+1) > len(t.slots) {
		t.grow()
	}
	mask := uint64(len(t.slots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		s := &t.slots[i]
		if s.head == 0 {
			*s = keySlot{hash: h, head: id + 1}
			t.used++
			return id
		}
		if s.hash == h {
			head := s.head - 1
			t.next[t.tails[head]] = id
			t.tails[head] = id
			return id
		}
	}
}

// grow doubles the slot array and re-files every chain.
func (t *keyTable) grow() {
	old := t.slots
	t.slots = make([]keySlot, max(16, 2*len(old)))
	mask := uint64(len(t.slots) - 1)
	for _, s := range old {
		if s.head == 0 {
			continue
		}
		i := s.hash & mask
		for t.slots[i].head != 0 {
			i = (i + 1) & mask
		}
		t.slots[i] = s
	}
}

// keyEq confirms hash hits by value: it compares row p of a batch's key
// columns (in at inPos) with entry id of an owner's stored key columns (st
// at stPos), column by column, equal when sqltypes.Compare says 0 — so INT
// equals INT exactly, INT equals FLOAT through the float, and NULL equals
// NULL (a join never asks about a NULL key). A single key column of one
// typed kind on both sides, with no NULL on either, compares its int64 or
// string payloads directly. Bind again after the stored columns change.
type keyEq struct {
	in, st       []rowset.Vec
	inPos, stPos []int
	ints, stInts []int64
	strs, stStrs []string
}

func (e *keyEq) bind(in []rowset.Vec, inPos []int, st []rowset.Vec, stPos []int) {
	*e = keyEq{in: in, inPos: inPos, st: st, stPos: stPos}
	if len(inPos) != 1 {
		return
	}
	x, y := &in[inPos[0]], &st[stPos[0]]
	if x.Kind() != y.Kind() || x.HasNulls() || y.HasNulls() {
		return // HasNulls is always true of a generic column
	}
	switch x.Kind() {
	case sqltypes.KindInt, sqltypes.KindBool, sqltypes.KindDate:
		e.ints, e.stInts = x.Int64s(), y.Int64s()
	case sqltypes.KindString:
		e.strs, e.stStrs = x.Strings(), y.Strings()
	}
}

// match returns the first id from id on along t's chain whose stored key
// equals row p's, -1 when none does.
func (e *keyEq) match(t *keyTable, p int, id int32) int32 {
	switch {
	case e.ints != nil:
		for x := e.ints[p]; id >= 0 && e.stInts[id] != x; {
			id = t.next[id]
		}
	case e.strs != nil:
		for x := e.strs[p]; id >= 0 && e.stStrs[id] != x; {
			id = t.next[id]
		}
	default:
		for id >= 0 && !e.equal(p, int(id)) {
			id = t.next[id]
		}
	}
	return id
}

func (e *keyEq) equal(p, id int) bool {
	for k, c := range e.inPos {
		if !vecEqual(&e.in[c], p, &e.st[e.stPos[k]], id) {
			return false
		}
	}
	return true
}

// vecEqual reports whether element a of x and element b of y compare equal.
func vecEqual(x *rowset.Vec, a int, y *rowset.Vec, b int) bool {
	if k := x.Kind(); k == y.Kind() && k != sqltypes.KindNull {
		if va, vb := x.Valid(a), y.Valid(b); !va || !vb {
			return va == vb
		}
		switch k {
		case sqltypes.KindString:
			return x.Strings()[a] == y.Strings()[b]
		case sqltypes.KindFloat:
			fa, fb := x.Float64s()[a], y.Float64s()[b]
			return !(fa < fb || fa > fb) // Compare's equality, NaN included
		default:
			return x.Int64s()[a] == y.Int64s()[b]
		}
	}
	return sqltypes.Compare(x.Value(a), y.Value(b)) == 0
}

// nullKey reports whether row idx has a NULL in any of the columns at pos.
func nullKey(cols []rowset.Vec, pos []int, idx int) bool {
	for _, p := range pos {
		if !cols[p].Valid(idx) {
			return true
		}
	}
	return false
}
