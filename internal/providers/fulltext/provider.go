package fulltext

import (
	"fmt"
	"strings"

	"dhqp/internal/ftquery"
	"dhqp/internal/netsim"
	"dhqp/internal/oledb"
	"dhqp/internal/rowset"
	"dhqp/internal/schema"
	"dhqp/internal/sqltypes"
)

// Provider exposes the search service through OLE DB (the "MSIDXS"
// provider of §2.2 and the full-text provider of Figure 2). Its command
// language is proprietary (Table 1: "Index Server Query Language"), so the
// DHQP reaches it only through pass-through commands — never decoded SQL.
type Provider struct {
	svc            *Service
	link           *netsim.Link
	defaultCatalog string
}

// NewProvider wraps a service; link may be nil for in-process use.
func NewProvider(svc *Service, link *netsim.Link) *Provider {
	return &Provider{svc: svc, link: link}
}

// Initialize implements oledb.DataSource. The DataSource property selects
// the default catalog for SCOPE() queries (OPENROWSET('MSIDXS',
// 'DQLiterature';..., ...)).
func (p *Provider) Initialize(props map[string]string) error {
	p.defaultCatalog = props["DataSource"]
	return nil
}

// Capabilities implements oledb.DataSource.
func (p *Provider) Capabilities() oledb.Capabilities {
	return oledb.Capabilities{
		ProviderName:    "MSIDXS",
		QueryLanguage:   "Index Server Query Language",
		SQLSupport:      oledb.SQLProprietary,
		SupportsCommand: true,
	}
}

// CreateSession implements oledb.DataSource.
func (p *Provider) CreateSession() (oledb.Session, error) {
	return &session{p: p}, nil
}

type session struct {
	p *Provider
}

// OpenRowset implements oledb.Session; catalogs are not directly scannable
// tables in this provider.
func (s *session) OpenRowset(string) (rowset.Rowset, error) {
	return nil, oledb.ErrNotSupported
}

// CreateCommand implements oledb.Session.
func (s *session) CreateCommand() (oledb.Command, error) {
	return &Command{s: s}, nil
}

// TablesInfo implements oledb.Session.
func (s *session) TablesInfo() ([]oledb.TableInfo, error) { return nil, oledb.ErrNotSupported }

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

// Command executes Index Server query language text.
type Command struct {
	s    *session
	text string
}

// SetText implements oledb.Command.
func (c *Command) SetText(text string) { c.text = text }

// SetParam implements oledb.Command (the language has no parameters; values
// are inlined by the caller).
func (c *Command) SetParam(string, sqltypes.Value) {}

// KeyRankColumns is the shape of CONTAINSTABLE results (Figure 2: "an OLE
// DB Rowset containing the identity of the row ... and a ranking value").
func KeyRankColumns() []schema.Column {
	return []schema.Column{
		{Name: "KEY", Kind: sqltypes.KindInt},
		{Name: "RANK", Kind: sqltypes.KindFloat},
	}
}

// Describe reports the command's output columns without executing it (the
// DHQP binder uses it for OPENROWSET/OPENQUERY shapes).
func (c *Command) Describe() ([]schema.Column, error) {
	kind, q, err := c.parse()
	if err != nil {
		return nil, err
	}
	if kind == cmdContainsTable {
		return KeyRankColumns(), nil
	}
	cols := make([]schema.Column, len(q.props))
	for i, p := range q.props {
		cols[i] = schema.Column{Name: p, Kind: propKind(p), Nullable: true}
	}
	return cols, nil
}

// Execute implements oledb.Command.
func (c *Command) Execute() (rowset.Rowset, error) {
	kind, q, err := c.parse()
	if err != nil {
		return nil, err
	}
	cat, ok := c.s.p.svc.Catalog(q.catalog)
	if !ok {
		return nil, fmt.Errorf("fulltext: catalog %q not found", q.catalog)
	}
	hits := cat.Search(q.query)
	var out *rowset.Materialized
	if kind == cmdContainsTable {
		rows := make([]rowset.Row, len(hits))
		for i, h := range hits {
			rows[i] = rowset.Row{sqltypes.NewInt(h.Key), sqltypes.NewFloat(h.Rank)}
		}
		out = rowset.NewMaterialized(KeyRankColumns(), rows)
	} else {
		cols := make([]schema.Column, len(q.props))
		for i, p := range q.props {
			cols[i] = schema.Column{Name: p, Kind: propKind(p), Nullable: true}
		}
		rows := make([]rowset.Row, len(hits))
		for i, h := range hits {
			row := make(rowset.Row, len(q.props))
			for j, p := range q.props {
				if v, ok := h.Props[strings.ToLower(p)]; ok {
					row[j] = v
				} else if strings.EqualFold(p, "rank") {
					row[j] = sqltypes.NewFloat(h.Rank)
				} else {
					row[j] = sqltypes.Null
				}
			}
			rows[i] = row
		}
		out = rowset.NewMaterialized(cols, rows)
	}
	return netsim.Metered(out, c.s.p.link), nil
}

// ExecuteNonQuery implements oledb.Command.
func (c *Command) ExecuteNonQuery() (int64, error) {
	return 0, fmt.Errorf("fulltext: the search service is read-only")
}

type cmdKind int

const (
	cmdContainsTable cmdKind = iota
	cmdScopeSelect
)

type parsedCmd struct {
	catalog string
	props   []string
	query   ftquery.Node
}

// parse interprets the command text:
//
//	CONTAINSTABLE <catalog> :: <ftquery>
//	SELECT p1, p2 FROM SCOPE() WHERE CONTAINS('<ftquery>')
func (c *Command) parse() (cmdKind, *parsedCmd, error) {
	text := strings.TrimSpace(c.text)
	upper := strings.ToUpper(text)
	if strings.HasPrefix(upper, "CONTAINSTABLE") {
		rest := strings.TrimSpace(text[len("CONTAINSTABLE"):])
		idx := strings.Index(rest, "::")
		if idx < 0 {
			return 0, nil, fmt.Errorf("fulltext: CONTAINSTABLE needs 'catalog :: query'")
		}
		catalog := strings.TrimSpace(rest[:idx])
		qtext := strings.TrimSpace(rest[idx+2:])
		q, err := ftquery.Parse(qtext)
		if err != nil {
			return 0, nil, err
		}
		return cmdContainsTable, &parsedCmd{catalog: catalog, query: q}, nil
	}
	if strings.HasPrefix(upper, "SELECT") {
		fromIdx := strings.Index(upper, " FROM ")
		if fromIdx < 0 {
			return 0, nil, fmt.Errorf("fulltext: scope query needs FROM SCOPE()")
		}
		propsText := text[len("SELECT"):fromIdx]
		var props []string
		for _, p := range strings.Split(propsText, ",") {
			p = strings.TrimSpace(p)
			if p != "" {
				props = append(props, p)
			}
		}
		whereIdx := strings.Index(upper, " WHERE ")
		if whereIdx < 0 {
			return 0, nil, fmt.Errorf("fulltext: scope query needs WHERE CONTAINS(...)")
		}
		cond := strings.TrimSpace(text[whereIdx+len(" WHERE "):])
		condUpper := strings.ToUpper(cond)
		if !strings.HasPrefix(condUpper, "CONTAINS(") || !strings.HasSuffix(cond, ")") {
			return 0, nil, fmt.Errorf("fulltext: scope query condition must be CONTAINS('...')")
		}
		inner := strings.TrimSpace(cond[len("CONTAINS(") : len(cond)-1])
		inner = strings.TrimPrefix(inner, "'")
		inner = strings.TrimSuffix(inner, "'")
		inner = strings.ReplaceAll(inner, "''", "'")
		q, err := ftquery.Parse(inner)
		if err != nil {
			return 0, nil, err
		}
		catalog := c.s.p.defaultCatalog
		if catalog == "" {
			return 0, nil, fmt.Errorf("fulltext: no default catalog set for SCOPE() query")
		}
		return cmdScopeSelect, &parsedCmd{catalog: catalog, props: props, query: q}, nil
	}
	return 0, nil, fmt.Errorf("fulltext: unrecognized command %q", text)
}

func propKind(name string) sqltypes.Kind {
	switch strings.ToLower(name) {
	case "size", "key":
		return sqltypes.KindInt
	case "rank":
		return sqltypes.KindFloat
	case "create", "write":
		return sqltypes.KindDate
	default:
		return sqltypes.KindString
	}
}
