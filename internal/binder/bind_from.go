package binder

import (
	"errors"
	"fmt"

	"dhqp/internal/algebra"
	"dhqp/internal/once"
	"dhqp/internal/parser"
)

// maxViewDepth bounds nested view expansion.
const maxViewDepth = 16

// viewCache holds each view definition text's parsed SELECT.
var viewCache = once.New[string, *parser.SelectStmt](1024)

// errViewNotSelect is a view definition that parses into something other
// than a SELECT.
var errViewNotSelect = errors.New("does not define a SELECT")

// viewOf returns a view definition's parsed SELECT, parsing each text once:
// the binder reads the statement and never writes it, so every compile that
// names the view shares one. A text that does not parse is not cached.
func viewOf(text string) (*parser.SelectStmt, error) {
	if sel, ok := viewCache.Get(text); ok {
		return sel, nil
	}
	st, err := parser.Parse(text)
	if err != nil {
		return nil, err
	}
	sel, ok := st.(*parser.SelectStmt)
	if !ok {
		return nil, errViewNotSelect
	}
	viewCache.Put(text, sel)
	return sel, nil
}

// bindTableRef binds one FROM-clause entry, adding its relation(s) to the
// scope and returning the logical subtree.
func (b *Binder) bindTableRef(tr parser.TableRef, sc *scope) (*algebra.Node, error) {
	switch t := tr.(type) {
	case *parser.NamedTable:
		return b.bindNamedTable(t, sc)
	case *parser.JoinRef:
		return b.bindJoinRef(t, sc)
	case *parser.DerivedTable:
		bound, err := b.bindSelect(t.Sel, nil)
		if err != nil {
			return nil, err
		}
		if len(bound.RequiredOrder) > 0 {
			// ORDER BY inside a derived table has no effect; drop it.
			bound.RequiredOrder = nil
		}
		sc.addRel(t.Alias, bound.ResultCols)
		return bound.Root, nil
	case *parser.OpenRowset:
		src, err := b.cat.AdHocSource(t.Provider, t.DataSource, t.Query)
		if err != nil {
			return nil, err
		}
		return b.getNode(src, aliasOr(t.Alias, t.Provider), sc)
	case *parser.OpenQuery:
		src, err := b.cat.PassThroughSource(t.Server, t.Query)
		if err != nil {
			return nil, err
		}
		return b.getNode(src, aliasOr(t.Alias, t.Server), sc)
	case *parser.MakeTable:
		src, err := b.cat.MakeTableSource(t.Provider, t.Path, t.Table)
		if err != nil {
			return nil, err
		}
		return b.getNode(src, aliasOr(t.Alias, t.Provider), sc)
	default:
		return nil, fmt.Errorf("binder: unsupported table reference %T", tr)
	}
}

func aliasOr(alias, fallback string) string {
	if alias != "" {
		return alias
	}
	return fallback
}

func (b *Binder) bindNamedTable(t *parser.NamedTable, sc *scope) (*algebra.Node, error) {
	res, err := b.cat.ResolveObject(t.Parts)
	if err != nil {
		return nil, err
	}
	if res.ViewText != "" {
		if b.viewDepth >= maxViewDepth {
			return nil, fmt.Errorf("binder: view nesting exceeds %d (cycle?)", maxViewDepth)
		}
		sel, err := viewOf(res.ViewText)
		if err != nil {
			return nil, fmt.Errorf("binder: view %s: %w", t.Name(), err)
		}
		b.viewDepth++
		bound, err := b.bindSelect(sel, nil)
		b.viewDepth--
		if err != nil {
			return nil, fmt.Errorf("binder: expanding view %s: %w", t.Name(), err)
		}
		sc.addRel(aliasOr(t.Alias, t.Name()), bound.ResultCols)
		return bound.Root, nil
	}
	return b.getNode(res.Source, aliasOr(t.Alias, t.Name()), sc)
}

// getNode materializes a Get leaf for a source, allocating ColumnIDs.
func (b *Binder) getNode(src *algebra.Source, alias string, sc *scope) (*algebra.Node, error) {
	if src.Def == nil {
		return nil, fmt.Errorf("binder: source %s has no schema", src)
	}
	cols := make([]algebra.OutCol, len(src.Def.Columns))
	for i, c := range src.Def.Columns {
		cols[i] = algebra.OutCol{ID: b.allocCol(), Name: c.Name, Kind: c.Kind}
	}
	sc.addRel(alias, cols)
	return algebra.NewNode(&algebra.Get{Src: src, Cols: cols}), nil
}

func (b *Binder) bindJoinRef(t *parser.JoinRef, sc *scope) (*algebra.Node, error) {
	left, err := b.bindTableRef(t.Left, sc)
	if err != nil {
		return nil, err
	}
	right, err := b.bindTableRef(t.Right, sc)
	if err != nil {
		return nil, err
	}
	eb := &exprBinder{b: b, sc: sc}
	on, _, err := eb.bind(t.On)
	if err != nil {
		return nil, err
	}
	jt := algebra.InnerJoin
	if t.Kind == parser.JoinLeftOuter {
		jt = algebra.LeftOuterJoin
	}
	return algebra.NewNode(&algebra.Join{Type: jt, On: on}, left, right), nil
}
