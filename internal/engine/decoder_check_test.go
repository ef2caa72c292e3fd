package engine

import (
	"slices"
	"testing"

	"dhqp/internal/algebra"
	"dhqp/internal/binder"
	"dhqp/internal/decoder"
	"dhqp/internal/opt"
	"dhqp/internal/oracle"
	"dhqp/internal/parser"
	"dhqp/internal/rules"
)

// TestDecoderCheckAgreesWithWriter holds decoder.Check, which decides
// remotability without writing text, to the writer it stands in for: over
// every subtree of every statement the oracle draws (seeds 1–4) and one
// tree per group of its explored memo, at every dialect level the
// round-trip fuzzer decodes under, Check accepts exactly the trees Decode
// writes, with the same statement parameters.
func TestDecoderCheckAgreesWithWriter(t *testing.T) {
	db := oracle.NewDB()
	s := NewServer("local", "odb")
	for _, sql := range db.Script() {
		s.MustExec(sql)
	}
	trees, remotable, withParams := 0, map[string]int{}, 0
	for seed := int64(1); seed <= 4; seed++ {
		for _, st := range db.Cases(seed, oraclePerFamily) {
			parsed, err := parser.Parse(st.SQL())
			if err != nil {
				t.Fatal(err)
			}
			b := binder.New(&catalog{s: s})
			bound, err := b.BindSelect(parsed.(*parser.SelectStmt))
			if err != nil {
				t.Fatalf("%s: %v", st.SQL(), err)
			}
			binder.PruneColumns(bound)
			// The explored memo adds the trees exploration derives: filters
			// pushed into UNION ALL arms carry the statement's parameters.
			md := s.newMetadata(bound.Root, false)
			o := opt.New(opt.DefaultConfig(), &rules.Context{CapsFor: s.capsFor, NewCol: b.AllocCol, TableCardFn: md.TableCardinality})
			if _, _, err := o.Optimize(bound.Root, md, bound.RequiredOrder); err != nil {
				t.Fatalf("%s: %v", st.SQL(), err)
			}
			var walk func(n *algebra.Node)
			walk = func(n *algebra.Node) {
				trees++
				for _, lv := range roundTripLevels {
					params, checkErr := decoder.Check(n, lv.caps())
					res, err := decoder.Decode(n, lv.caps())
					switch {
					case (checkErr == nil) != (err == nil):
						t.Fatalf("%s: %s\n%s\ncheck says %v, writer says %v", lv.server, st.SQL(), n, checkErr, err)
					case err == nil && !slices.Equal(params, res.Params):
						t.Fatalf("%s: %s\n%s\ncheck names parameters %v, the text %v", lv.server, st.SQL(), n, params, res.Params)
					case err == nil:
						remotable[lv.server]++
						if len(params) > 0 {
							withParams++
						}
					}
				}
				for _, k := range n.Kids {
					walk(k)
				}
			}
			walk(bound.Root)
			for _, g := range o.Memo().Groups {
				if tree := o.Memo().ExtractLogical(g.ID, nil); tree != nil {
					walk(tree)
				}
			}
		}
	}
	for _, lv := range roundTripLevels {
		if remotable[lv.server] == 0 || remotable[lv.server] == trees {
			t.Errorf("%s: %d of %d trees remotable; the test needs both answers", lv.server, remotable[lv.server], trees)
		}
	}
	if withParams == 0 {
		t.Error("no remotable tree names a statement parameter")
	}
	t.Logf("%d trees, remotable per level %v, %d remotable with parameters", trees, remotable, withParams)
}
