package oracle

// Seeds are the fixed cases: the hand-picked shapes of the executor's
// earlier equivalence grids — NULL join and grouping keys, an empty
// table, mixed-kind arithmetic and comparisons, a star join into an
// aggregate, LEFT OUTER and EXISTS with residuals on the hash join,
// pruned and reordered projections over a table with deleted rows, a
// parameter window over a partitioned view, and INT keys past 2^53 — and
// every disagreement the oracle has found, pinned.
func Seeds() []*Stmt {
	c := func(q, name string) Col { return Col{q, name} }
	it := func(es ...Expr) []Item {
		out := make([]Item, len(es))
		for i, e := range es {
			out[i] = Item{E: e}
		}
		return out
	}
	agg := func(fn string, arg Expr) Item { return Item{Agg: &Agg{Fn: fn, Arg: arg}} }
	lit := func(v int64) Lit { return Lit{IntCell(v)} }
	one := func(family string, q *Select) *Stmt { return &Stmt{Family: family, Arms: []*Select{q}} }
	on := func(l, r Col) Pred { return Cmp{"=", l, r} }
	a, b := func(n string) Col { return c("a", n) }, func(n string) Col { return c("b", n) }
	from := func(t string) Ref { return Ref{t, "a"} }
	join := func(t string, left bool, p Pred) []Join { return []Join{{Ref: Ref{t, "b"}, Left: left, On: p}} }

	return []*Stmt{
		one("filter", &Select{Items: it(a("a"), a("b"), a("s")), From: from("t1"), Where: Cmp{">", a("a"), lit(3)}}),
		one("filter", &Select{Items: it(a("s")), From: from("t1"),
			Where: And{And{Cmp{">=", a("a"), lit(1)}, Cmp{"<=", a("b"), lit(5)}}, Cmp{"<>", a("s"), Lit{StrCell("x9")}}}}),
		one("filter", &Select{Items: it(a("s")), From: from("t1"), Where: Like{a("s"), "x"}}),
		one("filter", &Select{Items: it(a("s")), From: from("t1"), Where: IsNull{E: a("b")}}),
		one("filter", &Select{Items: it(a("i"), a("s")), From: from("t3"), Where: Cmp{"=", a("f"), a("i")}}),
		one("filter", &Select{Items: it(a("s")), From: from("t3"), Where: Or{IsNull{E: a("f")}, IsNull{E: a("i")}}}),
		one("filter", &Select{Items: it(a("c"), a("a")), From: from("td")}),
		one("filter", &Select{Items: it(a("c"), a("a")), From: from("td"), Where: Cmp{">", a("d"), lit(2)}}),
		one("project", &Select{Items: it(Arith{"+", a("a"), a("b")}, Arith{"*", a("a"), lit(2)}), From: from("t1")}),
		one("project", &Select{Items: it(Arith{"+", a("i"), lit(1)}, Arith{"*", a("f"), Lit{FloatCell(2)}}, Arith{"+", a("i"), a("f")}), From: from("t3")}),
		one("join", &Select{Items: it(a("s"), b("v")), From: from("t1"), Joins: join("t2", true, on(a("a"), b("k")))}),
		one("join", &Select{Items: it(a("c"), b("v")), From: from("td"), Joins: join("t2", false, on(a("d"), b("k")))}),
		one("join", &Select{Items: it(a("id"), b("w")), From: from("fact"),
			Joins: join("dim2", true, And{on(a("k2"), b("k")), Cmp{">", b("w"), a("v")}})}),
		one("join", &Select{Items: it(a("v"), b("w")), From: from("ka"), Joins: join("kb", false, on(a("k"), b("k")))}),
		one("subquery", &Select{Items: it(a("s")), From: from("t1"),
			Where: Exists{Sub: &Select{From: Ref{"t2", "x"}, Where: on(c("x", "k"), a("a"))}}}),
		one("subquery", &Select{Items: it(a("s")), From: from("t1"),
			Where: Exists{Neg: true, Sub: &Select{From: Ref{"t2", "x"}, Where: on(c("x", "k"), a("a"))}}}),
		one("subquery", &Select{Items: it(a("id")), From: from("fact"),
			Where: Exists{Sub: &Select{From: Ref{"dim2", "x"}, Where: And{on(c("x", "k"), a("k2")), Cmp{">", c("x", "w"), a("v")}}}}}),
		one("group", &Select{Items: append(it(a("b")), agg("COUNT", nil), agg("SUM", a("a"))), From: from("t1"), Group: []Expr{a("b")}}),
		one("group", &Select{Items: []Item{agg("COUNT", nil), agg("SUM", a("z")), agg("MIN", a("z"))}, From: from("t0")}),
		one("group", &Select{Items: append(it(a("f")), agg("COUNT", nil), agg("SUM", a("i")), agg("AVG", a("f"))), From: from("t3"), Group: []Expr{a("f")}}),
		one("group", &Select{Items: append(it(b("name"), c("c", "w")), agg("COUNT", nil), agg("SUM", a("v")), agg("AVG", a("f"))),
			From: from("fact"), Joins: []Join{{Ref: Ref{"dim1", "b"}, On: on(a("k1"), b("k"))}, {Ref: Ref{"dim2", "c"}, On: on(a("k2"), c("c", "k"))}},
			Group: []Expr{b("name"), c("c", "w")}}),
		one("group", &Select{Items: append(it(a("k")), agg("SUM", a("v")), agg("COUNT", nil)), From: from("kg"), Group: []Expr{a("k")}}),
		one("group", &Select{Items: append(it(a("k2")), agg("AVG", a("v")), agg("AVG", a("id"))), From: from("fact"), Group: []Expr{a("k2")}}),
		one("group", &Select{Items: []Item{{Agg: &Agg{Fn: "COUNT", Arg: a("k"), Distinct: true}}}, From: from("kg")}),
		one("top", &Select{Top: 4, Items: it(a("a"), a("s")), From: from("t1"), Order: []Order{{0, true}, {1, false}}}),
		one("top", &Select{Top: 5, Items: it(a("i"), a("f"), a("s")), From: from("t3"), Order: []Order{{1, true}, {0, false}, {2, false}}}),
		one("top", &Select{Items: it(a("s")), From: from("t1"), Order: []Order{{0, false}}}),
		{Family: "union", Arms: []*Select{{Items: it(a("a")), From: from("t1")}, {Items: it(a("i")), From: from("t3")}}},
		{Family: "union", Params: map[string]Cell{"lo": IntCell(130), "hi": IntCell(270)}, Arms: []*Select{{
			Items: it(a("pk"), a("amt")), From: from("pv"), Order: []Order{{0, false}},
			Where: And{Cmp{">=", a("pk"), Param{"lo"}}, Cmp{"<", a("pk"), Param{"hi"}}}}}},

		// Found at seed 1: the decoder wrote the FLOAT 2.0 as "2", so a
		// member computed a.a * 2 in INT and returned INTs.
		one("project", &Select{Items: it(Arith{"*", a("a"), Lit{FloatCell(2)}}, Arith{"-", a("c"), Lit{FloatCell(1)}}), From: from("td")}),
		// Found at seed 1: the decoder pushed ORDER BY (t0.c + 2.5), which
		// a member's binder rejects; it now orders by the key's alias.
		one("top", &Select{Top: 7, Items: it(a("c"), Arith{"+", a("c"), Lit{FloatCell(2.5)}}), From: from("td"),
			Where: Cmp{">", a("a"), Lit{FloatCell(10.5)}}, Order: []Order{{1, false}, {0, false}}}),
		// Found at seed 1 once dim1 had an index: an index range open below
		// (k <= 1.5) returned the NULL keys, which sort first.
		one("filter", &Select{Items: it(a("name"), a("k")), From: from("dim1"), Where: Cmp{"<=", a("k"), Lit{FloatCell(1.5)}}}),
		// A NULL outer key bound into a parameterized index seek matched
		// the inner rows with NULL keys.
		one("join", &Select{Items: it(a("name"), b("id")), From: from("dim1"), Joins: join("fact", false, on(a("k"), b("k1"))),
			Where: Cmp{"=", a("w"), lit(3)}}),
	}
}
