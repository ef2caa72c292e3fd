// Vectorized iterator protocol. Batch-capable operators implement
// NextBatch alongside Next; a generic row→batch adapter bridges the
// remaining operators (sorts, spools, loop and merge joins). Remote
// rowsets and the parallel exchange move batches whichever protocol their
// parent speaks: their Next reads rows out of the current batch. Each
// parent commits to one protocol — row or batch — for the lifetime of an
// Open/Close cycle, so the choice is safe to make per execution.

package exec

import (
	"io"

	"dhqp/internal/rowset"
	"dhqp/internal/sqltypes"
)

// BatchIterator is a batch-capable operator cursor: NextBatch fills the
// caller's batch with up to its capacity in rows and returns io.EOF only
// on an empty fill.
type BatchIterator interface {
	Iterator
	NextBatch(b *rowset.Batch) error
}

// asBatchIterator returns it as a BatchIterator, wrapping row-only
// iterators in the generic row→batch adapter.
func asBatchIterator(it Iterator) BatchIterator {
	if bi, ok := it.(BatchIterator); ok {
		return bi
	}
	return &rowToBatch{it: it}
}

// rowToBatch adapts a row-only iterator into the batch protocol by pulling
// rows until the batch fills. It is the adapter boundary named in the
// design: everything below it (sort buffers, spools, loop joins) runs
// row-at-a-time unchanged.
type rowToBatch struct {
	it Iterator
}

func (a *rowToBatch) Open() error  { return a.it.Open() }
func (a *rowToBatch) Close() error { return a.it.Close() }

func (a *rowToBatch) Next() (rowset.Row, error) { return a.it.Next() }

func (a *rowToBatch) NextBatch(b *rowset.Batch) error {
	b.Reset(0)
	for !b.Full() {
		r, err := a.it.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		b.AppendRow(r)
	}
	if b.NumRows() == 0 {
		return io.EOF
	}
	return nil
}

// keyEnc builds hash keys into a reusable scratch buffer: encode returns a
// slice of the iterator-owned buffer, valid until the next encode call, so
// map probes via m[string(key)] compile to zero-allocation lookups and only
// genuinely new map entries pay a string copy.
type keyEnc struct {
	buf []byte
}

// encode writes the hash key of r's values at positions into the scratch
// buffer. ok is false when any key value is NULL (NULLs never join or
// group-match through hash keys built here).
func (k *keyEnc) encode(r rowset.Row, positions []int) ([]byte, bool) {
	b := k.buf[:0]
	for _, p := range positions {
		v := r[p]
		if v.IsNull() {
			k.buf = b
			return nil, false
		}
		h := v.Hash()
		b = append(b,
			byte(h), byte(h>>8), byte(h>>16), byte(h>>24),
			byte(h>>32), byte(h>>40), byte(h>>48), byte(h>>56), '|')
	}
	k.buf = b
	return b, true
}

// encodeAll is encode without the NULL rejection: grouping keys treat NULL
// as a regular value (NULL forms its own group), matching the hash layout
// the row-mode aggregate has always used.
func (k *keyEnc) encodeAll(r rowset.Row, positions []int) []byte {
	b := k.buf[:0]
	for _, p := range positions {
		h := r[p].Hash()
		b = append(b,
			byte(h), byte(h>>8), byte(h>>16), byte(h>>24),
			byte(h>>32), byte(h>>40), byte(h>>48), byte(h>>56))
	}
	k.buf = b
	return b
}

// hashVecAt hashes element idx of column v without boxing. ok is false for
// NULL. The sqltypes.HashOf* primitives are defined to match Value.Hash
// byte-for-byte, so keys built here interoperate with keys built from boxed
// rows (one hash join may encode its build side typed and its probe side
// from a row-only child).
func hashVecAt(v *rowset.Vec, idx int) (uint64, bool) {
	if !v.IsTyped() {
		val := v.Gen()[idx]
		if val.IsNull() {
			return 0, false
		}
		return val.Hash(), true
	}
	if !v.Valid(idx) {
		return 0, false
	}
	switch v.Kind() {
	case sqltypes.KindFloat:
		return sqltypes.HashOfFloat64(v.Float64s()[idx]), true
	case sqltypes.KindString:
		return sqltypes.HashOfString(v.Strings()[idx]), true
	case sqltypes.KindDate:
		return sqltypes.HashOfDate(v.Int64s()[idx]), true
	default: // Int, Bool share the int64 payload
		return sqltypes.HashOfInt64(v.Int64s()[idx]), true
	}
}

// encodeVec is encode reading directly from batch columns at physical row
// idx: typed columns hash their flat payloads, generic columns hash boxed
// values — the key bytes are identical either way.
func (k *keyEnc) encodeVec(cols []rowset.Vec, idx int, positions []int) ([]byte, bool) {
	b := k.buf[:0]
	for _, p := range positions {
		h, ok := hashVecAt(&cols[p], idx)
		if !ok {
			k.buf = b
			return nil, false
		}
		b = append(b,
			byte(h), byte(h>>8), byte(h>>16), byte(h>>24),
			byte(h>>32), byte(h>>40), byte(h>>48), byte(h>>56), '|')
	}
	k.buf = b
	return b, true
}

// encodeAllVec is encodeAll reading directly from batch columns (grouping
// keys: NULL hashes as a value and forms its own group).
func (k *keyEnc) encodeAllVec(cols []rowset.Vec, idx int, positions []int) []byte {
	b := k.buf[:0]
	for _, p := range positions {
		h, ok := hashVecAt(&cols[p], idx)
		if !ok {
			h = sqltypes.HashOfNull()
		}
		b = append(b,
			byte(h), byte(h>>8), byte(h>>16), byte(h>>24),
			byte(h>>32), byte(h>>40), byte(h>>48), byte(h>>56))
	}
	k.buf = b
	return b
}
