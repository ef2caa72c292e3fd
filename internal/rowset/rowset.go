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
// array, for consumers that keep rows a rowset may reuse.
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

// Rowset is the core iteration interface, the paper's IRowset: a consumer
// reads it a block of rows at a time (GetNextRows) into a Batch, then
// closes it. A rowset that carries bookmarks (IRowsetLocate) reads them as
// the ordinal one past its last column through ProjectedBatchReader.
type Rowset interface {
	// Columns describes the shape of the rows.
	Columns() []schema.Column
	// NextBatch fills b with up to b.CapRows() rows and returns io.EOF only
	// when no rows remain (an empty fill).
	NextBatch(b *Batch) error
	// Close releases resources. Close is idempotent.
	Close() error
}

// Materialized is a rowset held in memory as a Store that no longer
// changes: a provider's rows, metadata and statistics rowsets, test
// fixtures. Batch readers get read-only windows onto its columns; Rows
// boxes at the row-oriented edge.
type Materialized struct {
	cols []schema.Column
	s    Store
	pos  int
}

// NewMaterialized builds a materialized rowset over the given rows, column
// j typed to cols[j].Kind; a value of another kind degrades its column to
// boxed values. The rows are not retained.
func NewMaterialized(cols []schema.Column, rows []Row) *Materialized {
	m := &Materialized{cols: cols}
	m.s.cols = make([]Vec, len(cols))
	for j, c := range cols {
		m.s.cols[j] = BuildColVec(c.Kind, rows, j)
	}
	m.s.n = len(rows)
	return m
}

// Columns implements Rowset.
func (m *Materialized) Columns() []schema.Column { return m.cols }

// NextBatch implements Rowset: each column of b is a read-only window
// onto the stored column (see Batch.FillCols), so a fill moves no payload.
func (m *Materialized) NextBatch(b *Batch) error {
	if m.pos >= m.s.n {
		return io.EOF
	}
	k := min(b.CapRows(), m.s.n-m.pos)
	b.FillCols(m.s.cols, nil, m.pos, k)
	m.pos += k
	return nil
}

// Close implements Rowset.
func (m *Materialized) Close() error { return nil }

// Len returns the number of rows.
func (m *Materialized) Len() int { return m.s.n }

// Rows boxes every row, all of them in one backing array.
func (m *Materialized) Rows() []Row {
	n, w := m.s.n, len(m.s.cols)
	if n == 0 {
		return nil
	}
	vals := make([]sqltypes.Value, n*w)
	for j := range m.s.cols {
		m.s.cols[j].boxInto(vals[j:], w, n)
	}
	rows := make([]Row, n)
	for k := range rows {
		base := k * w
		rows[k] = Row(vals[base : base+w : base+w])
	}
	return rows
}

// ReadAll drains a rowset into a Materialized copy and closes it.
func ReadAll(rs Rowset) (*Materialized, error) {
	defer rs.Close()
	m := &Materialized{cols: rs.Columns()}
	m.s.Reset(len(m.cols))
	for b := NewBatch(0); ; {
		err := rs.NextBatch(b)
		if err == io.EOF {
			return m, nil
		}
		if err != nil {
			return nil, err
		}
		m.s.AddBatch(b)
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

// RowObjectProvider is implemented by rowsets that can surface a row as a
// row object for heterogeneous navigation.
type RowObjectProvider interface {
	Rowset
	// RowObject returns the row object of the row at bookmark bm.
	RowObject(bm int64) (*RowObject, error)
}

// Chaptered is implemented by rowsets that model containment relationships
// in tree-structured sources (§3.2.3): "hierarchies of row and rowset
// objects can be used to model containment relationships common in
// tree-structured data sources via chaptered rowsets." Chapter returns the
// child rowset of the row at bookmark bm under a named relationship (e.g.
// a mail message's replies).
type Chaptered interface {
	Rowset
	// Chapter opens the named child rowset of the row at bookmark bm.
	Chapter(bm int64, name string) (Rowset, error)
}
