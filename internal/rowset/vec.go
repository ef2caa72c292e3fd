// Typed column vectors: the unboxed representation behind Batch columns
// and Store rows. A Vec stores one column either generically (a
// []sqltypes.Value slice) or typed — a flat payload slice of the column's
// native Go type plus a validity bitmap — so hot kernels (filter
// comparisons, hash-key encoding, aggregate accumulation) run over machine
// words without Kind dispatch or Value struct copies. Values cross back
// into boxed form only at row-oriented edges: Batch.RowAt, Materialized.Rows
// and the generic expression kernel.
package rowset

import "dhqp/internal/sqltypes"

// Vec is one column of a Batch. Its storage mode is keyed off kind:
//
//   - kind == sqltypes.KindNull: generic mode — gen[i] holds boxed Values
//     (any mix of kinds, NULL included). This is the universal fallback.
//   - kind ∈ {Int, Bool, Date}: typed mode — i64[i] holds the payload
//     (bool as 0/1, date as days since epoch); the kind tag preserves the
//     exact SQL type for re-boxing.
//   - kind == Float: typed mode over f64.
//   - kind == String: typed mode over str.
//
// In typed mode NULLs live in the validity bitmap: bit i set means row i is
// non-NULL. hasNulls lets all-valid columns (the common case for key and
// fact columns) skip per-element bitmap checks entirely.
// A borrowed Vec's payload and validity are read-only windows onto a shared
// table image (borrow): fresh fills drop them, in-place writers copy first.
type Vec struct {
	kind     sqltypes.Kind
	i64      []int64
	f64      []float64
	str      []string
	valid    []uint64
	hasNulls bool
	borrowed bool
	gen      []sqltypes.Value
}

// Kind reports the column's storage kind; sqltypes.KindNull means generic
// (boxed) mode, otherwise the exact SQL kind of every non-NULL element.
func (v *Vec) Kind() sqltypes.Kind { return v.kind }

// IsTyped reports whether the column is in typed (unboxed) mode.
func (v *Vec) IsTyped() bool { return v.kind != sqltypes.KindNull }

// HasNulls reports whether any NULL has been written since the last reset.
// False guarantees every element is valid, so kernels may skip Valid calls.
// In generic mode it is conservatively true (boxed NULLs are not tracked).
func (v *Vec) HasNulls() bool {
	if v.kind == sqltypes.KindNull {
		return true
	}
	return v.hasNulls
}

// Int64s returns the typed int64 payload (kinds Int, Bool, Date). Elements
// at invalid (NULL) positions are unspecified.
func (v *Vec) Int64s() []int64 { return v.i64 }

// Float64s returns the typed float64 payload (kind Float).
func (v *Vec) Float64s() []float64 { return v.f64 }

// Strings returns the typed string payload (kind String).
func (v *Vec) Strings() []string { return v.str }

// Gen returns the generic boxed payload (generic mode only).
func (v *Vec) Gen() []sqltypes.Value { return v.gen }

// Valid reports whether element i is non-NULL.
func (v *Vec) Valid(i int) bool {
	if v.kind == sqltypes.KindNull {
		return !v.gen[i].IsNull()
	}
	if !v.hasNulls {
		return true
	}
	return v.valid[uint(i)>>6]&(1<<(uint(i)&63)) != 0
}

// SetNull marks element i NULL (typed mode; in generic mode it stores a
// boxed NULL).
func (v *Vec) SetNull(i int) {
	if v.kind == sqltypes.KindNull {
		v.gen[i] = sqltypes.Null
		return
	}
	v.own()
	v.valid[uint(i)>>6] &^= 1 << (uint(i) & 63)
	v.hasNulls = true
}

// Value boxes element i back into sqltypes.Value form.
func (v *Vec) Value(i int) sqltypes.Value {
	switch v.kind {
	case sqltypes.KindNull:
		return v.gen[i]
	case sqltypes.KindInt:
		if !v.Valid(i) {
			return sqltypes.Null
		}
		return sqltypes.NewInt(v.i64[i])
	case sqltypes.KindBool:
		if !v.Valid(i) {
			return sqltypes.Null
		}
		return sqltypes.NewBool(v.i64[i] != 0)
	case sqltypes.KindDate:
		if !v.Valid(i) {
			return sqltypes.Null
		}
		return sqltypes.NewDateDays(v.i64[i])
	case sqltypes.KindFloat:
		if !v.Valid(i) {
			return sqltypes.Null
		}
		return sqltypes.NewFloat(v.f64[i])
	case sqltypes.KindString:
		if !v.Valid(i) {
			return sqltypes.Null
		}
		return sqltypes.NewString(v.str[i])
	default:
		return sqltypes.Null
	}
}

// SetValue stores a boxed value at i: a typed write when the kind matches
// the column's typed kind (or the value is NULL), a generic write in generic
// mode, and otherwise a degrade — the column converts itself to generic mode
// by boxing the prefix 0..i-1 before storing. Degrading assumes a sequential
// producer (indices written in order), which holds for every fill path.
func (v *Vec) SetValue(i int, val sqltypes.Value) {
	if v.kind == sqltypes.KindNull {
		v.gen[i] = val
		return
	}
	if val.IsNull() {
		v.SetNull(i)
		return
	}
	if val.Kind() == v.kind {
		v.own()
		switch v.kind {
		case sqltypes.KindInt, sqltypes.KindBool, sqltypes.KindDate:
			x, _ := val.AsInt()
			v.i64[i] = x
		case sqltypes.KindFloat:
			v.f64[i] = val.Float()
		case sqltypes.KindString:
			v.str[i] = val.Str()
		}
		if v.hasNulls {
			v.valid[uint(i)>>6] |= 1 << (uint(i) & 63)
		}
		return
	}
	v.degrade(i)
	v.gen[i] = val
}

// boxInto boxes elements 0..n-1 into dst[0], dst[stride], dst[2*stride],
// ... — the column→row boxing inner loop with the kind dispatch hoisted out
// of the element loop. dst's zero value is already NULL, so invalid
// positions are simply skipped.
func (v *Vec) boxInto(dst []sqltypes.Value, stride, n int) {
	switch v.kind {
	case sqltypes.KindNull:
		g := v.gen
		for k := range n {
			dst[k*stride] = g[k]
		}
	case sqltypes.KindInt:
		xs := v.i64
		for k := range n {
			if v.hasNulls && !v.Valid(k) {
				continue
			}
			dst[k*stride] = sqltypes.NewInt(xs[k])
		}
	case sqltypes.KindBool:
		xs := v.i64
		for k := range n {
			if v.hasNulls && !v.Valid(k) {
				continue
			}
			dst[k*stride] = sqltypes.NewBool(xs[k] != 0)
		}
	case sqltypes.KindDate:
		xs := v.i64
		for k := range n {
			if v.hasNulls && !v.Valid(k) {
				continue
			}
			dst[k*stride] = sqltypes.NewDateDays(xs[k])
		}
	case sqltypes.KindFloat:
		fs := v.f64
		for k := range n {
			if v.hasNulls && !v.Valid(k) {
				continue
			}
			dst[k*stride] = sqltypes.NewFloat(fs[k])
		}
	case sqltypes.KindString:
		ss := v.str
		for k := range n {
			if v.hasNulls && !v.Valid(k) {
				continue
			}
			dst[k*stride] = sqltypes.NewString(ss[k])
		}
	}
}

// encodedSize sums Value.EncodedSize over the elements at idxs without
// boxing them.
func (v *Vec) encodedSize(idxs []int) int {
	n := 0
	switch v.kind {
	case sqltypes.KindNull:
		for _, idx := range idxs {
			n += v.gen[idx].EncodedSize()
		}
		return n
	case sqltypes.KindString:
		for _, idx := range idxs {
			if v.Valid(idx) {
				n += 4 + len(v.str[idx])
			} else {
				n++
			}
		}
		return n
	case sqltypes.KindBool:
		return len(idxs)
	}
	n = 8 * len(idxs)
	if v.hasNulls {
		for _, idx := range idxs {
			if !v.Valid(idx) {
				n -= 7
			}
		}
	}
	return n
}

// BuildColVec builds a full-length typed vector over column j of rows —
// the constructor of a table's columnar image and of a Materialized
// rowset. A kind-mismatched value degrades it to generic, as SetValue
// does.
func BuildColVec(kind sqltypes.Kind, rows []Row, j int) Vec {
	var v Vec
	v.ResetTyped(kind, len(rows))
	for i, r := range rows {
		v.SetValue(i, r[j])
	}
	return v
}

// borrow makes v a read-only window onto elements [off, off+k) of src: the
// image scan path, which moves no payload. Windows are capped at k, so no
// append grows into src. Generic columns, and NULL-bearing ranges whose
// offset is not on a validity word, are copied instead.
func (v *Vec) borrow(src *Vec, off, k int) {
	if src.kind == sqltypes.KindNull || src.hasNulls && off&63 != 0 {
		v.copyRange(src, off, k)
		return
	}
	end := off + k
	*v = Vec{kind: src.kind, hasNulls: src.hasNulls, borrowed: true, gen: v.gen}
	switch src.kind {
	case sqltypes.KindFloat:
		v.f64 = src.f64[off:end:end]
	case sqltypes.KindString:
		v.str = src.str[off:end:end]
	default:
		v.i64 = src.i64[off:end:end]
	}
	if src.hasNulls {
		words := (end + 63) >> 6
		v.valid = src.valid[off>>6 : words : words]
	}
}

// drop forgets borrowed buffers before a fresh fill would write into them.
func (v *Vec) drop() {
	if v.borrowed {
		*v = Vec{gen: v.gen}
	}
}

// own replaces borrowed buffers with private copies before a write.
func (v *Vec) own() {
	if v.borrowed {
		w := *v
		n, _ := w.room()
		*v = Vec{gen: w.gen}
		v.copyRange(&w, 0, n)
	}
}

// copyRange refills v with a copy of exactly the k elements [off, off+k) of
// src, which is only read.
func (v *Vec) copyRange(src *Vec, off, k int) {
	if src.kind == sqltypes.KindNull {
		v.ResetGeneric(k)
		for i := 0; i < k; i++ {
			v.gen[i] = src.Value(off + i)
		}
		return
	}
	v.resetTyped(src.kind, k)
	switch src.kind {
	case sqltypes.KindFloat:
		copy(v.f64, src.f64[off:off+k])
	case sqltypes.KindString:
		copy(v.str, src.str[off:off+k])
	default:
		copy(v.i64, src.i64[off:off+k])
	}
	if !src.hasNulls {
		return
	}
	for i := 0; i < k; i++ {
		if !src.Valid(off + i) {
			v.SetNull(i)
		}
	}
}

// Gather appends one element per entry of idxs to the column, whose first n
// elements are in use: src's element at that index, or NULL where the index
// is negative (neg tells whether any is — the NULL-extended side of an outer
// join). An empty column takes src's representation; a later src of
// another kind degrades it as SetValue would. The kind switch sits outside
// the element loop and validity is consulted only when src has NULLs or neg
// is set. Buffers at least double when they grow, so a long run of appends
// (a hash-join build) moves each element O(1) times, and a column refilled
// to a size it has held allocates nothing.
func (v *Vec) Gather(n int, src *Vec, idxs []int32, neg bool) {
	if n == 0 {
		v.ResetTyped(src.kind, 0)
	} else if v.own(); v.kind != sqltypes.KindNull && v.kind != src.kind {
		v.degrade(n)
	}
	need := n + len(idxs)
	if have, room := v.room(); have < need {
		to := need
		if room < need {
			to = max(need, 2*n) // reallocating: at least double
		}
		v.grow(n, to)
	}
	nulls := neg || src.hasNulls
	switch v.kind {
	case sqltypes.KindNull:
		out := v.gen[n:need]
		if src.kind == sqltypes.KindNull && !neg {
			for k, idx := range idxs {
				out[k] = src.gen[idx]
			}
			return
		}
		for k, idx := range idxs {
			out[k] = sqltypes.Null
			if idx >= 0 {
				out[k] = src.Value(int(idx))
			}
		}
	case sqltypes.KindFloat:
		gather(v, n, v.f64[n:need], src, src.f64, idxs, nulls)
	case sqltypes.KindString:
		gather(v, n, v.str[n:need], src, src.str, idxs, nulls)
	default:
		gather(v, n, v.i64[n:need], src, src.i64, idxs, nulls)
	}
}

// gather is Gather's typed element loop over one payload type: out is v's
// payload from element n on, in is src's.
func gather[T any](v *Vec, n int, out []T, src *Vec, in []T, idxs []int32, nulls bool) {
	if !nulls {
		for k, idx := range idxs {
			out[k] = in[idx]
		}
		return
	}
	for k, idx := range idxs {
		if idx < 0 || !src.Valid(int(idx)) {
			v.SetNull(n + k)
			continue
		}
		out[k] = in[idx]
	}
}

// room reports the active payload's length and capacity.
func (v *Vec) room() (int, int) {
	switch v.kind {
	case sqltypes.KindNull:
		return len(v.gen), cap(v.gen)
	case sqltypes.KindFloat:
		return len(v.f64), cap(v.f64)
	case sqltypes.KindString:
		return len(v.str), cap(v.str)
	default:
		return len(v.i64), cap(v.i64)
	}
}

// degrade converts a typed column to generic mode, boxing the first n
// elements (the sequentially written prefix).
func (v *Vec) degrade(n int) {
	held, _ := v.room()
	v.gen = resize(v.gen, 0, held)
	for j := 0; j < n; j++ {
		v.gen[j] = v.Value(j)
	}
	v.kind = sqltypes.KindNull
	v.hasNulls = false
}

// ResetTyped prepares the column for a typed fill of exactly n rows of the
// given kind; kind sqltypes.KindNull resets generic instead.
func (v *Vec) ResetTyped(kind sqltypes.Kind, n int) {
	if kind == sqltypes.KindNull {
		v.ResetGeneric(n)
		return
	}
	v.resetTyped(kind, n)
}

// ResetGeneric prepares the column for a generic fill of exactly n rows
// (the expression kernels size their output columns to the selection),
// reusing the boxed buffer when it is large enough.
func (v *Vec) ResetGeneric(n int) {
	v.drop()
	v.kind = sqltypes.KindNull
	v.hasNulls = false
	v.gen = resize(v.gen, 0, n)
}

// resetTyped prepares the column for a typed fill of n rows of the given
// kind, reusing payload and bitmap buffers across fills. All validity bits
// start set (every row valid until SetNull).
func (v *Vec) resetTyped(kind sqltypes.Kind, n int) {
	v.drop()
	v.kind = kind
	v.hasNulls = false
	v.valid = v.valid[:0]
	v.grow(0, n)
}

// grow extends the active payload to hold `to` rows, keeping the first n
// (the rows written so far). Newly exposed validity words start all-set, so
// rows written before the column's first NULL read valid without having
// touched the bitmap.
func (v *Vec) grow(n, to int) {
	v.own()
	switch v.kind {
	case sqltypes.KindNull:
		v.gen = resize(v.gen, n, to)
		return
	case sqltypes.KindFloat:
		v.f64 = resize(v.f64, n, to)
	case sqltypes.KindString:
		v.str = resize(v.str, n, to)
	default:
		v.i64 = resize(v.i64, n, to)
	}
	had := len(v.valid)
	v.valid = resize(v.valid, had, (to+63)/64)
	for i := had; i < len(v.valid); i++ {
		v.valid[i] = ^uint64(0)
	}
}

// resize returns s with length `to`, its first n elements kept: a reslice
// when the buffer already has the room, otherwise a new buffer of exactly
// `to` elements.
func resize[T any](s []T, n, to int) []T {
	if cap(s) >= to {
		return s[:to]
	}
	grown := make([]T, to)
	copy(grown, s[:n])
	return grown
}
