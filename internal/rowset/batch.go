// Column batches: the vectorized execution engine's unit of data flow.
// Instead of pulling one Row per call, batch-capable operators exchange a
// Batch — per-column Vec vectors plus an optional selection vector — so
// the per-row costs of the Volcano protocol (an interface call, an
// environment allocation, a telemetry sample) amortize over up to
// MaxBatchSize rows at a time. Columns are typed (flat int64/float64/string
// payloads with validity bitmaps, see Vec) when the producer knows the
// column kinds, generic boxed vectors otherwise.
package rowset

import "dhqp/internal/sqltypes"

// Batch sizing. DefaultBatchSize balances cache residency against
// amortization; MaxBatchSize caps memory per operator regardless of the
// session knob. The batch size is a ceiling on rows per fill, not an
// allocation: columns are sized by what a fill holds. Producers that know
// their row count (FillCols, Store.Emit, the expression kernels) size
// columns to it exactly; AppendRow, which does not, grows them from
// minAppendRows by appendGrowth up to the ceiling. A reused batch keeps the
// buffers of its largest fill, so refilling it to that size again
// allocates nothing.
const (
	DefaultBatchSize = 1024
	MaxBatchSize     = 4096

	minAppendRows = 16
	appendGrowth  = 8
)

// ClampBatchSize normalizes a batch-size knob value: 0 (or negative) means
// DefaultBatchSize, and values beyond MaxBatchSize clamp down.
func ClampBatchSize(n int) int {
	if n <= 0 {
		return DefaultBatchSize
	}
	if n > MaxBatchSize {
		return MaxBatchSize
	}
	return n
}

// Batch is a column-major block of rows. cols[j] is column j's vector;
// rows 0..n-1 are physically present. When useSel is set, only the
// physical row indices listed in sel (strictly increasing) are live —
// filters "delete" rows by shrinking the selection instead of moving
// values.
//
// Like Row, a Batch handed up by NextBatch is only valid until the next
// NextBatch call on the same iterator; consumers that retain values must
// copy them out.
type Batch struct {
	cols    []Vec
	n       int // physical row count
	room    int // rows the columns are sized for; AppendRow grows at n == room
	capRows int
	sel     []int
	useSel  bool
	ident   []int // cached identity selection, grown to the largest fill
	spare   []Vec // Project's scratch copy of the column set
}

// NewBatch returns an empty batch holding up to capRows rows per fill.
func NewBatch(capRows int) *Batch {
	return &Batch{capRows: ClampBatchSize(capRows)}
}

// CapRows reports how many rows a single fill may hold.
func (b *Batch) CapRows() int { return b.capRows }

// Width reports the column count.
func (b *Batch) Width() int { return len(b.cols) }

// NumRows reports the physical row count, ignoring any selection.
func (b *Batch) NumRows() int { return b.n }

// Len reports the live row count (the selection's length when one is set).
func (b *Batch) Len() int {
	if b.useSel {
		return len(b.sel)
	}
	return b.n
}

// Reset clears the batch to zero rows with the given width, all columns in
// generic (boxed) mode and empty: it allocates nothing once the batch has
// held that width. width 0 defers the shape to the first AppendRow (generic
// adapters over children whose width is unknown until a row arrives).
func (b *Batch) Reset(width int) {
	b.clear(width)
	for j := range b.cols {
		b.cols[j].ResetGeneric(0)
	}
}

// ResetTyped clears the batch to zero rows with one column per entry of
// kinds, each column typed to its kind (a sqltypes.KindNull entry stays
// generic — the producer doesn't know that column's type).
func (b *Batch) ResetTyped(kinds []sqltypes.Kind) {
	b.clear(len(kinds))
	for j := range b.cols {
		b.cols[j].ResetTyped(kinds[j], 0)
	}
}

// clear empties the batch to width columns; the caller resets each one.
func (b *Batch) clear(width int) {
	b.n, b.room = 0, 0
	b.useSel = false
	b.sel = b.sel[:0]
	b.setWidth(width)
}

// setWidth resizes the column set, recovering previously allocated column
// vectors (and their payload buffers) from the slice's spare capacity so
// Reset/refill cycles do not reallocate.
func (b *Batch) setWidth(width int) {
	if cap(b.cols) >= width {
		b.cols = b.cols[:width]
		return
	}
	grown := make([]Vec, width)
	copy(grown, b.cols[:cap(b.cols)])
	b.cols = grown
}

// Release empties the batch and forgets every borrowed window it holds —
// in its columns, their spare capacity and Project's scratch — so a batch
// kept past its statement pins no table image. Owned buffers stay for the
// next fill.
func (b *Batch) Release() {
	b.clear(0)
	for _, cols := range [2][]Vec{b.cols[:cap(b.cols)], b.spare[:cap(b.spare)]} {
		for j := range cols {
			cols[j].drop()
		}
	}
}

// Truncate drops columns beyond width (projection of a wider provider
// rowset down to the plan's scan width — O(1), no value movement).
func (b *Batch) Truncate(width int) {
	if width > 0 && width < len(b.cols) {
		b.cols = b.cols[:width]
	}
}

// TruncateRows keeps only the first m live rows (Top-N's LIMIT short-cut).
func (b *Batch) TruncateRows(m int) {
	if m < 0 || m >= b.Len() {
		return
	}
	if b.useSel {
		b.sel = b.sel[:m]
	} else {
		b.n = m
	}
}

// Project rearranges the columns in place: column j becomes the former
// column m[j]. Vectors move, values do not, and the columns m leaves out
// park behind the live ones so the next fill finds their buffers again. A
// column m names a second time is copied, so no two columns share buffers.
func (b *Batch) Project(m []int) {
	identity := len(m) == len(b.cols)
	for j, src := range m {
		identity = identity && src == j
	}
	if identity {
		return
	}
	old := append(b.spare[:0], b.cols...)
	b.spare = old
	b.setWidth(max(len(old), len(m)))
	taken := make([]bool, len(old))
	for j, src := range m {
		if taken[src] {
			b.cols[j] = Vec{}
			b.cols[j].copyRange(&old[src], 0, b.n)
			continue
		}
		taken[src] = true
		b.cols[j] = old[src]
	}
	rest := len(m)
	for src := range old {
		if !taken[src] && rest < len(b.cols) {
			b.cols[rest] = old[src]
			rest++
		}
	}
	b.cols = b.cols[:len(m)]
}

// Swap exchanges the two batches' contents, buffers included: a producer's
// filled batch reaches the consumer's without a value being copied, and the
// consumer's spent buffers go back for the next fill.
func (b *Batch) Swap(o *Batch) { *b, *o = *o, *b }

// EncodedSize approximates the live rows' wire size in bytes: the sum of
// Row.EncodedSize over them.
func (b *Batch) EncodedSize() int {
	idxs := b.Indices()
	n := 2 * len(idxs) // row headers
	for j := range b.cols {
		n += b.cols[j].encodedSize(idxs)
	}
	return n
}

// Col returns column j's vector. Producers write through it (SetValue /
// typed setters) then SetNumRows.
func (b *Batch) Col(j int) *Vec { return &b.cols[j] }

// Cols returns the column vectors (the expression kernels' input form).
func (b *Batch) Cols() []Vec { return b.cols }

// SetNumRows declares the physical row count after direct column writes
// (the producer sized the columns itself, to at least n).
func (b *Batch) SetNumRows(n int) { b.n, b.room = n, n }

// AppendRow copies r into the batch as the next physical row. On a
// width-0 batch the first row fixes the width (generic columns). Room is
// checked once per row, not per value.
func (b *Batch) AppendRow(r Row) {
	if len(b.cols) == 0 && len(r) > 0 {
		b.Reset(len(r))
	}
	if b.n == b.room {
		b.grow()
	}
	for j := range b.cols {
		b.cols[j].SetValue(b.n, r[j])
	}
	b.n++
}

// grow makes room for more appended rows: minAppendRows, then appendGrowth
// times the room so far, up to the ceiling.
func (b *Batch) grow() {
	b.room = min(max(minAppendRows, appendGrowth*b.room), b.capRows)
	for j := range b.cols {
		b.cols[j].grow(b.n, b.room)
	}
}

// srcCol maps output column j through an optional projection.
func srcCol(proj []int, j int) int {
	if proj == nil {
		return j
	}
	return proj[j]
}

// projWidth is the width of a fill through an optional projection of a
// full-column source.
func projWidth(proj []int, full int) int {
	if proj == nil {
		return full
	}
	return len(proj)
}

// FillCols loads rows [off, off+k) of a columnar image — one full-table
// Vec per column — into the batch: column j is a read-only window onto
// src[proj[j]] (proj nil: every column, in order), so a scan moves no
// payload and src must not change while the batch is in use. Generic
// columns, and NULL-bearing ranges at offsets that are not multiples of
// 64, are copied (see Vec.borrow).
func (b *Batch) FillCols(src []Vec, proj []int, off, k int) {
	b.clear(projWidth(proj, len(src)))
	for j := range b.cols {
		b.cols[j].borrow(&src[srcCol(proj, j)], off, k)
	}
	b.SetNumRows(k)
}

// Full reports whether the batch has reached its physical capacity.
func (b *Batch) Full() bool { return b.n >= b.capRows }

// Indices returns the live physical row indices in order: the selection
// when one is set, otherwise a cached identity slice 0..n-1.
func (b *Batch) Indices() []int {
	if b.useSel {
		return b.sel
	}
	if had := len(b.ident); had < b.n {
		b.ident = resize(b.ident, had, b.n)
		for i := had; i < b.n; i++ {
			b.ident[i] = i
		}
	}
	return b.ident[:b.n]
}

// SetSelection installs sel (copied into the batch's own buffer) as the
// live-row set. Filters call this with the indices that passed.
func (b *Batch) SetSelection(sel []int) {
	b.sel = append(b.sel[:0], sel...)
	b.useSel = true
}

// RowAt gathers live row i (0 ≤ i < Len) into buf, returning buf resized.
// The values alias the batch's vectors only by copy, so buf stays valid
// across refills.
func (b *Batch) RowAt(i int, buf Row) Row {
	idx := i
	if b.useSel {
		idx = b.sel[i]
	}
	if cap(buf) < len(b.cols) {
		buf = make(Row, len(b.cols))
	}
	buf = buf[:len(b.cols)]
	for j := range b.cols {
		buf[j] = b.cols[j].Value(idx)
	}
	return buf
}

// ProjectedBatchReader is a Rowset that can deliver a subset of its
// columns in the caller's order: output column j is source column proj[j]
// (nil: every column). A pruned scan over such a rowset stays columnar
// without moving the columns it leaves out.
type ProjectedBatchReader interface {
	NextBatchProjected(b *Batch, proj []int) error
}

// FillBatch fills b from rs with the columns proj names (nil: all of them)
// — directly when rs can batch-read that shape, otherwise by a full fill
// that Project then narrows.
func FillBatch(rs Rowset, b *Batch, proj []int) error {
	if pr, ok := rs.(ProjectedBatchReader); ok {
		return pr.NextBatchProjected(b, proj)
	}
	err := rs.NextBatch(b)
	if err == nil && proj != nil {
		b.Project(proj)
	}
	return err
}
