// Package simplep implements the paper's "simple provider" category (§3.3):
// a provider that supports only the mandatory OLE DB interfaces — connect
// and retrieve named rowsets. No command language, no indexes, no bookmarks,
// no statistics: "in this case, DHQP provides all of the querying
// functionality on top of this base provider."
//
// The stand-in source is a set of named in-memory tables loaded from
// CSV-like text, modelling text-file and personal-productivity data.
package simplep

import (
	"fmt"
	"strings"

	"dhqp/internal/netsim"
	"dhqp/internal/oledb"
	"dhqp/internal/rowset"
	"dhqp/internal/schema"
	"dhqp/internal/sqltypes"
)

// Provider serves named rowsets only.
type Provider struct {
	tables map[string]*table
	link   *netsim.Link
}

type table struct {
	def  *schema.Table
	rows []rowset.Row
}

// New returns an empty simple provider; link may be nil for local use.
func New(link *netsim.Link) *Provider {
	return &Provider{tables: map[string]*table{}, link: link}
}

// AddTable registers a named rowset.
func (p *Provider) AddTable(def *schema.Table, rows []rowset.Row) error {
	if err := def.Validate(); err != nil {
		return err
	}
	p.tables[strings.ToLower(def.Name)] = &table{def: def, rows: rows}
	return nil
}

// LoadCSV registers a table from header+typed rows in a compact text form:
// the first line is "name:kind,name:kind,..."; subsequent lines are
// comma-separated values (no quoting — the loader targets test corpora).
func (p *Provider) LoadCSV(name, text string) error {
	lines := strings.Split(strings.TrimSpace(text), "\n")
	if len(lines) == 0 {
		return fmt.Errorf("simplep: empty csv for %s", name)
	}
	var cols []schema.Column
	for _, h := range strings.Split(lines[0], ",") {
		parts := strings.SplitN(strings.TrimSpace(h), ":", 2)
		kind := sqltypes.KindString
		if len(parts) == 2 {
			switch strings.ToLower(parts[1]) {
			case "int":
				kind = sqltypes.KindInt
			case "float":
				kind = sqltypes.KindFloat
			case "date":
				kind = sqltypes.KindDate
			case "bool":
				kind = sqltypes.KindBool
			}
		}
		cols = append(cols, schema.Column{Name: parts[0], Kind: kind, Nullable: true})
	}
	def := &schema.Table{Name: name, Columns: cols}
	var rows []rowset.Row
	for _, line := range lines[1:] {
		if strings.TrimSpace(line) == "" {
			continue
		}
		fields := strings.Split(line, ",")
		if len(fields) != len(cols) {
			return fmt.Errorf("simplep: row has %d fields, want %d: %q", len(fields), len(cols), line)
		}
		row := make(rowset.Row, len(cols))
		for i, f := range fields {
			f = strings.TrimSpace(f)
			if f == "" {
				row[i] = sqltypes.Null
				continue
			}
			v, err := sqltypes.Coerce(sqltypes.NewString(f), cols[i].Kind)
			if err != nil {
				return fmt.Errorf("simplep: %s: %w", line, err)
			}
			row[i] = v
		}
		rows = append(rows, row)
	}
	return p.AddTable(def, rows)
}

// Initialize implements oledb.DataSource.
func (p *Provider) Initialize(map[string]string) error { return nil }

// Capabilities implements oledb.DataSource — the bare minimum.
func (p *Provider) Capabilities() oledb.Capabilities {
	return oledb.Capabilities{
		ProviderName:         "SimpleProvider",
		QueryLanguage:        "(none)",
		SQLSupport:           oledb.SQLNone,
		SupportsSchemaRowset: true, // table metadata only
	}
}

// CreateSession implements oledb.DataSource.
func (p *Provider) CreateSession() (oledb.Session, error) {
	return &session{p: p}, nil
}

type session struct {
	p *Provider
}

// OpenRowset implements oledb.Session — the one data interface a simple
// provider has.
func (s *session) OpenRowset(name string) (rowset.Rowset, error) {
	// Accept catalog-qualified names by taking the last part.
	if i := strings.LastIndexByte(name, '.'); i >= 0 {
		name = name[i+1:]
	}
	t, ok := s.p.tables[strings.ToLower(name)]
	if !ok {
		return nil, fmt.Errorf("simplep: rowset %q not found", name)
	}
	return netsim.Metered(rowset.NewMaterialized(t.def.Columns, t.rows), s.p.link), nil
}

// CreateCommand implements oledb.Session.
func (s *session) CreateCommand() (oledb.Command, error) { return nil, oledb.ErrNotSupported }

// TablesInfo implements oledb.Session.
func (s *session) TablesInfo() ([]oledb.TableInfo, error) {
	var out []oledb.TableInfo
	for _, t := range s.p.tables {
		out = append(out, oledb.TableInfo{Def: t.def, Cardinality: int64(len(t.rows))})
	}
	return out, nil
}

// OpenIndexRange implements oledb.Session.
func (s *session) OpenIndexRange(string, string, oledb.Bound, oledb.Bound) (rowset.Rowset, error) {
	return nil, oledb.ErrNotSupported
}

// FetchByBookmarks implements oledb.Session.
func (s *session) FetchByBookmarks(string, []int64) (rowset.Rowset, error) {
	return nil, oledb.ErrNotSupported
}

// ColumnHistogram implements oledb.Session.
func (s *session) ColumnHistogram(string, string) (rowset.Rowset, error) {
	return nil, oledb.ErrNotSupported
}

// Close implements oledb.Session.
func (s *session) Close() error { return nil }
