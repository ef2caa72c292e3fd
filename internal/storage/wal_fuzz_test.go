package storage

import (
	"math/rand"
	"reflect"
	"testing"

	"dhqp/internal/rowset"
	"dhqp/internal/sqltypes"
)

// drawWALRecords draws n well-formed records of every kind. Rows, commit
// bookmark lists and DDL payloads are non-empty or nil, the forms decoding
// yields, so a decoded record compares equal to the one encoded.
func drawWALRecords(rng *rand.Rand, n int) []walRecord {
	kinds := []recKind{recInsert, recUpdate, recDelete, recPrepare, recCommit, recAbort, recCreateDB, recCreateTable, recCreateIndex, recDropTable}
	name := func() string { return []string{"db", "db.t", "fed.dbo.orders", ""}[rng.Intn(4)] }
	recs := make([]walRecord, n)
	for i := range recs {
		r := walRecord{kind: kinds[rng.Intn(len(kinds))], txn: rng.Uint64() >> rng.Intn(64)}
		switch r.kind {
		case recInsert, recUpdate:
			r.table, r.bm = name(), rng.Int63n(1<<40)-1
			r.row = make(rowset.Row, 1+rng.Intn(5))
			for j := range r.row {
				switch rng.Intn(6) {
				case 0:
					r.row[j] = sqltypes.Null
				case 1:
					r.row[j] = sqltypes.NewBool(rng.Intn(2) == 0)
				case 2:
					r.row[j] = sqltypes.NewInt(rng.Int63() - rng.Int63())
				case 3:
					r.row[j] = sqltypes.NewDateDays(rng.Int63n(40000) - 20000)
				case 4:
					r.row[j] = sqltypes.NewFloat(rng.NormFloat64() * 1e6)
				default:
					r.row[j] = sqltypes.NewString(string(make([]byte, rng.Intn(300))))
				}
			}
		case recDelete:
			r.table, r.bm = name(), rng.Int63n(1<<20)
		case recCommit:
			for j := rng.Intn(4); j > 0; j-- {
				r.bms = append(r.bms, rng.Int63n(1<<30)-1)
			}
		case recCreateDB, recDropTable:
			r.table = name()
		case recCreateTable, recCreateIndex:
			r.table = name()
			r.def = []byte(`{"Name":"t","Columns":[{"Name":"a","Kind":2}]}`)[:1+rng.Intn(40)]
		}
		recs[i] = r
	}
	return recs
}

// FuzzWALTail builds a valid log from drawn records, then truncates it,
// tears it (the tail from a cut on overwritten with zeros or ones, as a
// partial sector write leaves it) or flips one bit. Recovery's decodeLog
// must return exactly the records whose frames lie wholly before the
// damage, and a valid length that ends the last of them. decodeRecord and
// decodeLog must also survive arbitrary bytes.
func FuzzWALTail(f *testing.F) {
	for seed := int64(0); seed < 4; seed++ {
		for mode := uint8(0); mode < 4; mode++ {
			f.Add(seed, uint8(3+seed), mode, uint32(seed*37+int64(mode)), []byte{byte(recInsert), 1, 1, 'x'})
		}
	}
	f.Fuzz(func(t *testing.T, seed int64, n, mode uint8, at uint32, junk []byte) {
		if recs, valid := decodeLog(junk); valid > len(junk) || valid < 0 || len(recs) > 0 && valid == 0 {
			t.Fatalf("decodeLog on %d arbitrary bytes: %d records, valid length %d", len(junk), len(recs), valid)
		}
		decodeRecord(junk)

		recs := drawWALRecords(rand.New(rand.NewSource(seed)), int(n%16))
		var log []byte
		ends := make([]int, len(recs)) // ends[i]: byte offset just past frame i
		for i := range recs {
			log = append(log, encodeRecord(&recs[i])...)
			ends[i] = len(log)
		}
		if len(log) == 0 {
			return
		}
		cut := int(at % uint32(len(log)))
		damaged := append([]byte(nil), log...)
		switch mode % 4 {
		case 0: // truncated
			damaged = damaged[:cut]
		case 1, 2: // torn: the tail reads back as zeros or as ones
			fill := byte(0)
			if mode%4 == 2 {
				fill = 0xff
			}
			for i := cut; i < len(damaged); i++ {
				damaged[i] = fill
			}
		case 3: // one flipped bit
			damaged[cut] ^= 1 << (at >> 29)
		}
		whole := 0 // frames that end at or before the damage
		for whole < len(ends) && ends[whole] <= cut {
			whole++
		}
		if mode%4 == 1 || mode%4 == 2 {
			// A torn tail that happens to rewrite its bytes unchanged
			// leaves the frames it covers intact.
			for whole < len(ends) && string(damaged[:ends[whole]]) == string(log[:ends[whole]]) {
				whole++
			}
		}
		got, valid := decodeLog(damaged)
		wantValid := 0
		if whole > 0 {
			wantValid = ends[whole-1]
		}
		if len(got) != whole || valid != wantValid {
			t.Fatalf("mode %d at %d of %d bytes: %d records (valid %d), want %d (valid %d)", mode%4, cut, len(log), len(got), valid, whole, wantValid)
		}
		if whole > 0 && !reflect.DeepEqual(got, recs[:whole]) {
			t.Fatalf("mode %d at %d: decoded records differ from those logged", mode%4, cut)
		}
	})
}
