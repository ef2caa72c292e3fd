// Package oracle is an independent reference evaluator for the SELECT
// statements the engine runs: a seeded generator draws a statement as a
// small struct, renders it to SQL, and Eval computes its answer over the
// same rows by the plainest method there is — nested loops, linear
// grouping, a full sort. It imports only the standard library and has its
// own value model, comparison, three-valued logic and NULL rules, so a bug
// in the engine's vectors, key tables or kernels cannot hide here too.
package oracle

import (
	"cmp"
	"fmt"
	"strconv"
	"strings"
	"time"
)

// Kind is a cell's type. The generator draws INT, FLOAT, VARCHAR, BIT and
// DATE columns; NULL is a kind of its own, as in SQL.
type Kind uint8

const (
	Null Kind = iota
	Int
	Float
	Str
	Bit
	Date
)

// Cell is one value. A BIT holds 0 or 1 in I, a DATE its days since
// 1970-01-01.
type Cell struct {
	K Kind
	I int64
	F float64
	S string
}

// IntCell, FloatCell, StrCell, BitCell and DateCell make non-NULL cells;
// the zero Cell is NULL.
func IntCell(i int64) Cell     { return Cell{K: Int, I: i} }
func FloatCell(f float64) Cell { return Cell{K: Float, F: f} }
func StrCell(s string) Cell    { return Cell{K: Str, S: s} }
func DateCell(days int64) Cell { return Cell{K: Date, I: days} }
func BitCell(b bool) Cell {
	if b {
		return Cell{K: Bit, I: 1}
	}
	return Cell{K: Bit}
}

// date formats a DATE cell's days as YYYY-MM-DD.
func (c Cell) date() string { return time.Unix(c.I*86400, 0).UTC().Format("2006-01-02") }

// String renders the cell with its kind visible: 3 is an INT, 3f a FLOAT.
func (c Cell) String() string {
	switch c.K {
	case Int:
		return strconv.FormatInt(c.I, 10)
	case Float:
		return strconv.FormatFloat(c.F, 'g', -1, 64) + "f"
	case Str:
		return strconv.Quote(c.S)
	case Bit:
		return strconv.FormatInt(c.I, 10) + "b"
	case Date:
		return c.date()
	}
	return "NULL"
}

// literal renders the cell as a SQL literal.
func (c Cell) literal() string {
	switch c.K {
	case Int:
		return strconv.FormatInt(c.I, 10)
	case Float:
		s := strconv.FormatFloat(c.F, 'f', -1, 64)
		if !strings.Contains(s, ".") {
			s += ".0"
		}
		return s
	case Str:
		return "'" + c.S + "'"
	case Bit:
		return strconv.FormatInt(c.I, 10)
	case Date:
		return "'" + c.date() + "'"
	}
	return "NULL"
}

func (c Cell) num() float64 {
	if c.K == Float {
		return c.F
	}
	return float64(c.I)
}

// Compare is the total order SQL sorts by: NULL first, then numbers by
// value (a BIT is the number 0 or 1; two integers exactly, through float64
// otherwise), then strings by their bytes, then dates.
func Compare(a, b Cell) int {
	rank := func(c Cell) int {
		switch c.K {
		case Null:
			return 0
		case Str:
			return 2
		case Date:
			return 3
		}
		return 1
	}
	if ra, rb := rank(a), rank(b); ra != rb {
		return cmp.Compare(ra, rb)
	}
	switch {
	case a.K == Null:
		return 0
	case a.K == Str:
		return strings.Compare(a.S, b.S)
	case a.K != Float && b.K != Float:
		return cmp.Compare(a.I, b.I)
	}
	return cmp.Compare(a.num(), b.num())
}

// Same reports whether two result cells are identical, kind included.
func Same(a, b Cell) bool { return a.K == b.K && Compare(a, b) == 0 }

// TV is a three-valued truth value.
type TV uint8

const (
	False TV = iota
	Unknown
	True
)

func tvOf(b bool) TV {
	if b {
		return True
	}
	return False
}

func and(a, b TV) TV { return min(a, b) }
func or(a, b TV) TV  { return max(a, b) }
func not(a TV) TV    { return True - a }

// compareOp applies a comparison operator; a NULL operand makes it Unknown.
func compareOp(op string, a, b Cell) TV {
	if a.K == Null || b.K == Null {
		return Unknown
	}
	c := Compare(a, b)
	switch op {
	case "=":
		return tvOf(c == 0)
	case "<>":
		return tvOf(c != 0)
	case "<":
		return tvOf(c < 0)
	case "<=":
		return tvOf(c <= 0)
	case ">":
		return tvOf(c > 0)
	case ">=":
		return tvOf(c >= 0)
	}
	panic("oracle: comparison " + op)
}

// arith applies + - or *: NULL in, NULL out; INT with INT stays INT, and
// a FLOAT operand makes the result FLOAT.
func arith(op string, a, b Cell) Cell {
	if a.K == Null || b.K == Null {
		return Cell{}
	}
	if a.K == Int && b.K == Int {
		switch op {
		case "+":
			return IntCell(a.I + b.I)
		case "-":
			return IntCell(a.I - b.I)
		case "*":
			return IntCell(a.I * b.I)
		}
	} else {
		x, y := a.num(), b.num()
		switch op {
		case "+":
			return FloatCell(x + y)
		case "-":
			return FloatCell(x - y)
		case "*":
			return FloatCell(x * y)
		}
	}
	panic(fmt.Sprintf("oracle: arithmetic %s over %v, %v", op, a, b))
}

// likePrefix is LIKE 'prefix%': case-insensitive, as the engine's default
// collation is; a NULL operand makes it Unknown.
func likePrefix(c Cell, prefix string) TV {
	if c.K == Null {
		return Unknown
	}
	return tvOf(len(c.S) >= len(prefix) && strings.EqualFold(c.S[:len(prefix)], prefix))
}
