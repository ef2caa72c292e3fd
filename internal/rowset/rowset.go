// Package rowset implements the paper's unifying tabular abstraction
// (§3.1.2): every data provider — base tables, query processors, full-text
// search, mail stores — exposes data as a Rowset, a multi-set of rows whose
// columns are described by metadata. Query results, schema metadata and
// histogram statistics all flow through the same interface, which is what
// lets generic components layer on top of arbitrary providers.
package rowset

import (
	"io"

	"dhqp/internal/schema"
	"dhqp/internal/sqltypes"
)

// Row is one row of values, positionally matching the rowset's columns.
type Row []sqltypes.Value

// Clone returns a copy of the row that does not alias the original backing
// array. Operators that buffer rows (sorts, spools, hash tables) must clone.
func (r Row) Clone() Row {
	out := make(Row, len(r))
	copy(out, r)
	return out
}

// EncodedSize approximates the row's wire size in bytes.
func (r Row) EncodedSize() int {
	n := 2 // row header
	for _, v := range r {
		n += v.EncodedSize()
	}
	return n
}

// String renders the row for diagnostics.
func (r Row) String() string {
	s := "("
	for i, v := range r {
		if i > 0 {
			s += ", "
		}
		s += v.Display()
	}
	return s + ")"
}

// Rowset is the core iteration interface. Next returns io.EOF after the last
// row. Implementations may reuse the returned Row's backing array across
// calls; consumers that retain rows must Clone them.
type Rowset interface {
	// Columns describes the shape of the rows.
	Columns() []schema.Column
	// Next returns the next row or io.EOF.
	Next() (Row, error)
	// Close releases resources. Close is idempotent.
	Close() error
}

// Bookmarked is implemented by rowsets whose rows carry stable bookmarks
// (the paper's IRowsetLocate): base-table rowsets of index providers. The
// bookmark of the most recently returned row enables remote fetch.
type Bookmarked interface {
	Rowset
	// Bookmark returns the bookmark of the row most recently returned by
	// Next.
	Bookmark() int64
}

// Materialized is an in-memory rowset, used for small metadata/statistics
// rowsets and test fixtures, and as the spool buffer.
type Materialized struct {
	cols []schema.Column
	rows []Row
	pos  int
}

// NewMaterialized builds a materialized rowset over the given rows. The rows
// are not copied.
func NewMaterialized(cols []schema.Column, rows []Row) *Materialized {
	return &Materialized{cols: cols, rows: rows}
}

// Columns implements Rowset.
func (m *Materialized) Columns() []schema.Column { return m.cols }

// Next implements Rowset.
func (m *Materialized) Next() (Row, error) {
	if m.pos >= len(m.rows) {
		return nil, io.EOF
	}
	r := m.rows[m.pos]
	m.pos++
	return r, nil
}

// Close implements Rowset.
func (m *Materialized) Close() error { return nil }

// Reset rewinds the rowset to its first row (spools rescan this way).
func (m *Materialized) Reset() { m.pos = 0 }

// Len returns the number of rows.
func (m *Materialized) Len() int { return len(m.rows) }

// Rows exposes the backing rows (read-only by convention).
func (m *Materialized) Rows() []Row { return m.rows }

// Append adds a row (cloned) to the rowset.
func (m *Materialized) Append(r Row) { m.rows = append(m.rows, r.Clone()) }

// ReadAll drains a rowset into a Materialized copy and closes it.
func ReadAll(rs Rowset) (*Materialized, error) {
	out := NewMaterialized(rs.Columns(), nil)
	defer rs.Close()
	for {
		r, err := rs.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		out.Append(r)
	}
}

// RowObject models the paper's row object (§3.2.3): one row instance whose
// columns may extend beyond the rowset's common columns, used for
// heterogeneous results such as mail messages where each row can expose
// row-specific columns.
type RowObject struct {
	Common Row
	// Extra maps row-specific column names to values.
	Extra map[string]sqltypes.Value
}

// Get returns the named extra column value.
func (ro *RowObject) Get(name string) (sqltypes.Value, bool) {
	v, ok := ro.Extra[name]
	return v, ok
}

// RowObjectProvider is implemented by rowsets that can surface the current
// row as a row object for heterogeneous navigation.
type RowObjectProvider interface {
	Rowset
	// RowObject returns the row object for the most recently returned row.
	RowObject() (*RowObject, error)
}

// Chaptered is implemented by rowsets that model containment relationships
// in tree-structured sources (§3.2.3): "hierarchies of row and rowset
// objects can be used to model containment relationships common in
// tree-structured data sources via chaptered rowsets." Chapter returns the
// child rowset of the most recently returned row under a named
// relationship (e.g. a mail message's replies).
type Chaptered interface {
	Rowset
	// Chapter opens the named child rowset of the current row.
	Chapter(name string) (Rowset, error)
}
