package rowset

// Store is the one in-memory row buffer, held column-wise: cols[j] is
// column j of every stored row, in arrival order and in the representation
// its producer delivered, and a row's id is its position. The executor's
// hash join build side, spool, loop joins, remote fetch and aggregate keep
// their rows in one, and a Materialized rowset is one that no longer
// changes, so rows enter by one gather per column and leave by another.
type Store struct {
	cols []Vec
	n    int
	ids  []int32 // scratch: the ids of a batch's live rows, or of an emit's
}

// Len reports the number of stored rows.
func (s *Store) Len() int { return s.n }

// Cols returns the stored columns; the first Len elements of each are the
// stored rows.
func (s *Store) Cols() []Vec { return s.cols }

// Room reports how many rows the store's column buffers hold without
// growing: what it keeps allocated once reset.
func (s *Store) Room() int {
	n := 0
	for j := range s.cols {
		_, c := s.cols[j].room()
		n = max(n, c)
	}
	return n
}

// Reset empties the store to width columns, keeping their buffers.
func (s *Store) Reset(width int) {
	s.n = 0
	if cap(s.cols) < width {
		s.cols = make([]Vec, width)
	}
	s.cols = s.cols[:width]
}

// Add appends rows idxs of cols: stored column j takes cols[pos[j]] for
// every j of pos, or cols[j] for every stored column when pos is nil.
func (s *Store) Add(cols []Vec, pos []int, idxs []int32) {
	if pos == nil {
		for j := range s.cols {
			s.cols[j].Gather(s.n, &cols[j], idxs, false)
		}
	} else {
		for j, c := range pos {
			s.cols[j].Gather(s.n, &cols[c], idxs, false)
		}
	}
	s.n += len(idxs)
}

// AddBatch appends every live row of b, copied: b may be refilled, or be a
// window onto a columnar image, once AddBatch returns.
func (s *Store) AddBatch(b *Batch) {
	s.ids = Int32s(s.ids, b.Indices())
	s.Add(b.Cols(), nil, s.ids)
}

// Int32s returns idxs as int32s, in dst's buffer: the index form Gather
// takes.
func Int32s(dst []int32, idxs []int) []int32 {
	dst = dst[:0]
	for _, i := range idxs {
		dst = append(dst, int32(i))
	}
	return dst
}

// Emit copies the stored rows from id from on into b, as many as fit, and
// returns how many it copied. The copy leaves the store free to refill
// while b is still being read.
func (s *Store) Emit(b *Batch, from int) int {
	k := min(b.CapRows(), s.n-from)
	s.ids = s.ids[:0]
	for id := from; id < from+k; id++ {
		s.ids = append(s.ids, int32(id))
	}
	s.Gather(b, s.ids)
	return k
}

// Gather copies the stored rows ids into b, in that order, replacing its
// contents.
func (s *Store) Gather(b *Batch, ids []int32) {
	b.Reset(len(s.cols))
	for j := range s.cols {
		b.Col(j).Gather(0, &s.cols[j], ids, false)
	}
	b.SetNumRows(len(ids))
}
