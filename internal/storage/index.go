package storage

import (
	"io"
	"sort"

	"dhqp/internal/rowset"
	"dhqp/internal/schema"
	"dhqp/internal/sqltypes"
)

var errEOF = io.EOF

// Index is an ordered secondary index: a sorted list of (key, bookmark)
// entries supporting seek and range navigation (the paper's IRowsetIndex)
// and bookmark retrieval for base-row fetch (IRowsetLocate).
type Index struct {
	def     schema.Index
	table   *Table
	entries []indexEntry // sorted by key, then bookmark
}

type indexEntry struct {
	key rowset.Row
	bm  int64
}

// Def returns the index descriptor.
func (ix *Index) Def() schema.Index { return ix.def }

// keyOf extracts the index key from a table row.
func (ix *Index) keyOf(r rowset.Row) rowset.Row {
	k := make(rowset.Row, len(ix.def.Columns))
	for i, ord := range ix.def.Columns {
		k[i] = r[ord]
	}
	return k
}

func compareKeys(a, b rowset.Row) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if c := sqltypes.Compare(a[i], b[i]); c != 0 {
			return c
		}
	}
	// A shorter key is a prefix: equal for range purposes.
	return 0
}

// posLocked is where entry (key, bm) sits or would be inserted.
func (ix *Index) posLocked(e indexEntry) int {
	return sort.Search(len(ix.entries), func(i int) bool { return !entryLess(ix.entries[i], e) })
}

// insertLocked adds an entry; caller holds the table lock.
func (ix *Index) insertLocked(r rowset.Row, bm int64) {
	e := indexEntry{key: ix.keyOf(r), bm: bm}
	pos := ix.posLocked(e)
	ix.entries = append(ix.entries, indexEntry{})
	copy(ix.entries[pos+1:], ix.entries[pos:])
	ix.entries[pos] = e
}

// deleteLocked removes an entry; caller holds the table lock.
func (ix *Index) deleteLocked(r rowset.Row, bm int64) {
	pos := ix.posLocked(indexEntry{key: ix.keyOf(r), bm: bm})
	if pos < len(ix.entries) && ix.entries[pos].bm == bm {
		ix.entries = append(ix.entries[:pos], ix.entries[pos+1:]...)
	}
}

// sameKey reports whether two images of one row carry the same index key,
// in which case the row's entry need not move.
func (ix *Index) sameKey(a, b rowset.Row) bool {
	for _, ord := range ix.def.Columns {
		if sqltypes.Compare(a[ord], b[ord]) != 0 {
			return false
		}
	}
	return true
}

// Bound describes one end of a key range. A nil Key means unbounded.
type Bound struct {
	Key       rowset.Row
	Inclusive bool
}

// Range returns a rowset of base-table rows whose index keys fall within
// [lo, hi] per the bounds' inclusivity, in index order. The returned rowset
// reads each row's bookmark as the ordinal one past the table's last
// column. Keys may be prefixes of the full index key.
func (ix *Index) Range(lo, hi Bound) rowset.Rowset {
	return ix.RangeAt(lo, hi, Latest)
}

// RangeAt is Range as of snapshot csn, read through the table's one read
// path: each entry's row as of the snapshot, by position from main where
// nothing newer rewrote it. A row a commit newer than csn rewrote is filed
// under its current key, so its entry is skipped and its snapshot image
// joins the range where that image's key sorts — the same rows in the same
// (key, bookmark) order as filtering and sorting ScanAt(csn), at a cost of
// O(matches + undo records newer than csn).
func (ix *Index) RangeAt(lo, hi Bound, csn uint64) rowset.Rowset {
	t := ix.table
	t.mu.RLock()
	defer t.mu.RUnlock()
	start, end := ix.searchLocked(lo, hi)
	s := t.readLocked(csn).list(end - start)
	var old []indexEntry // snapshot images in range, in index order
	for bm, r := range s.past {
		if r == nil {
			continue
		}
		if key := ix.keyOf(r); lo.above(key) && hi.below(key) {
			old = append(old, indexEntry{key: key, bm: bm})
		}
	}
	if len(old) > 1 {
		sort.Slice(old, func(a, b int) bool { return entryLess(old[a], old[b]) })
	}
	for _, e := range ix.entries[start:end] {
		if _, rewritten := s.past[e.bm]; rewritten {
			continue
		}
		for ; len(old) > 0 && entryLess(old[0], e); old = old[1:] {
			s.add(old[0].bm)
		}
		s.add(e.bm)
	}
	for _, e := range old {
		s.add(e.bm)
	}
	return s.seal().outlive(&t.mu)
}

// above reports whether key lies at or after b taken as a lower bound;
// an absent bound admits every key.
func (b Bound) above(key rowset.Row) bool {
	if b.Key == nil {
		return true
	}
	c := compareKeys(key, b.Key)
	return c > 0 || (c == 0 && b.Inclusive)
}

// below is above for an upper bound.
func (b Bound) below(key rowset.Row) bool {
	if b.Key == nil {
		return true
	}
	c := compareKeys(key, b.Key)
	return c < 0 || (c == 0 && b.Inclusive)
}

// entryLess is index order: by key, then bookmark.
func entryLess(a, b indexEntry) bool {
	if c := compareKeys(a.key, b.key); c != 0 {
		return c < 0
	}
	return a.bm < b.bm
}

// searchLocked returns the half-open span of entries within the bounds;
// caller holds the table lock.
func (ix *Index) searchLocked(lo, hi Bound) (start, end int) {
	start = sort.Search(len(ix.entries), func(i int) bool {
		return lo.above(ix.entries[i].key)
	})
	end = sort.Search(len(ix.entries), func(i int) bool {
		return !hi.below(ix.entries[i].key)
	})
	if end < start {
		end = start
	}
	return start, end
}

// Seek returns the rows whose index key equals key exactly.
func (ix *Index) Seek(key rowset.Row) rowset.Rowset {
	return ix.Range(Bound{Key: key, Inclusive: true}, Bound{Key: key, Inclusive: true})
}

// Len returns the number of index entries.
func (ix *Index) Len() int {
	ix.table.mu.RLock()
	defer ix.table.mu.RUnlock()
	return len(ix.entries)
}
