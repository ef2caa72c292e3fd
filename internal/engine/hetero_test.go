package engine

import (
	"strings"
	"testing"

	"dhqp/internal/netsim"
	"dhqp/internal/oledb"
	"dhqp/internal/providers/email"
	"dhqp/internal/providers/simplep"
	"dhqp/internal/providers/sqlful"
	"dhqp/internal/sqltypes"
)

// newDocServer builds a server with a docs table and a full-text index on
// its body column.
func newDocServer(t *testing.T) *Server {
	t.Helper()
	s := NewServer("local", "docdb")
	s.MustExec(`CREATE TABLE docs (id INT PRIMARY KEY, title VARCHAR(64), body VARCHAR(256))`)
	s.MustExec(`INSERT INTO docs VALUES
		(1, 'pdb survey', 'a survey of parallel database systems and their architectures'),
		(2, 'hq paper', 'heterogeneous query processing in federated database systems'),
		(3, 'cooking', 'how to cook pasta quickly'),
		(4, 'running', 'the runner ran a marathon and kept running'),
		(5, 'opt', 'query optimization with histograms and statistics')`)
	// Filler documents make the corpus large enough that the indexed plan
	// beats the naive row-at-a-time CONTAINS evaluation.
	var b strings.Builder
	b.WriteString("INSERT INTO docs VALUES ")
	for i := 0; i < 400; i++ {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString("(" + itoa(100+i) + ", 'filler', 'assorted words about weather trains and gardens')")
	}
	s.MustExec(b.String())
	if err := s.CreateFullTextIndex("doccat", "docs", "body"); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestContainsUsesFullTextIndex(t *testing.T) {
	s := newDocServer(t)
	plan, _, _, err := s.Plan(`SELECT title FROM docs WHERE CONTAINS(body, '"parallel database" OR "heterogeneous query"')`)
	if err != nil {
		t.Fatal(err)
	}
	planStr := plan.String()
	if !strings.Contains(planStr, "ProviderCommand") || !strings.Contains(planStr, "RemoteFetch") {
		t.Errorf("full-text plan missing search-service integration:\n%s", planStr)
	}
	res := q(t, s, `SELECT title FROM docs WHERE CONTAINS(body, '"parallel database" OR "heterogeneous query"')`)
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestContainsInflectional(t *testing.T) {
	s := newDocServer(t)
	// The paper's stemming example: runner/run/ran are equivalent.
	res := q(t, s, `SELECT id FROM docs WHERE CONTAINS(body, 'run')`)
	if len(res.Rows) != 1 || res.Rows[0][0].Int() != 4 {
		t.Errorf("rows = %v", res.Rows)
	}
}

func TestContainsWithoutIndexFallsBackToNaive(t *testing.T) {
	s := NewServer("local", "docdb")
	s.MustExec(`CREATE TABLE notes (id INT, body VARCHAR(128))`)
	s.MustExec(`INSERT INTO notes VALUES (1, 'parallel database'), (2, 'nothing')`)
	plan, _, _, err := s.Plan(`SELECT id FROM notes WHERE CONTAINS(body, 'database')`)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(plan.String(), "ProviderCommand") {
		t.Errorf("no index exists but plan uses the search service:\n%s", plan.String())
	}
	res := q(t, s, `SELECT id FROM notes WHERE CONTAINS(body, 'database')`)
	if len(res.Rows) != 1 || res.Rows[0][0].Int() != 1 {
		t.Errorf("rows = %v", res.Rows)
	}
}

// TestOpenRowsetMSIDXS reproduces the §2.2 file-system query.
func TestOpenRowsetMSIDXS(t *testing.T) {
	s := NewServer("local", "db")
	svc := s.FulltextService()
	files := map[string]string{
		`d:\docs\pdb.txt`:     "a classic survey of parallel database machines",
		`d:\docs\hq.html`:     "<html><body>heterogeneous query processing</body></html>",
		`d:\docs\recipes.doc`: "%DOC%pasta with tomatoes",
	}
	for path, content := range files {
		if err := svc.AddFile("DQLiterature", path, []byte(content), nil); err != nil {
			t.Fatal(err)
		}
	}
	res := q(t, s, `SELECT FS.path FROM OpenRowset('MSIDXS','DQLiterature';'';'',
		'Select Path, size from SCOPE() where CONTAINS(''"Parallel database" OR "heterogeneous query"'')') AS FS`)
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
	paths := []string{res.Rows[0][0].Str(), res.Rows[1][0].Str()}
	found := 0
	for _, p := range paths {
		if strings.HasSuffix(p, "pdb.txt") || strings.HasSuffix(p, "hq.html") {
			found++
		}
	}
	if found != 2 {
		t.Errorf("paths = %v", paths)
	}
}

func TestOpenQueryPassThrough(t *testing.T) {
	s := NewServer("local", "db")
	svc := s.FulltextService()
	svc.AddFile("lit", "a.txt", []byte("databases are fun"), nil)
	svc.AddFile("lit", "b.txt", []byte("nothing here"), nil)
	s.MustExec(`EXEC sp_addlinkedserver 'ftsrv', 'MSIDXS', 'lit'`)
	res := q(t, s, `SELECT q.path FROM OPENQUERY(ftsrv, 'SELECT path FROM SCOPE() WHERE CONTAINS(''database'')') q`)
	if len(res.Rows) != 1 || res.Rows[0][0].Str() != "a.txt" {
		t.Errorf("rows = %v", res.Rows)
	}
}

// TestEmailFederation reproduces §2.4: unanswered recent mail from Seattle
// customers, joining the mail provider with an Access-class database.
func TestEmailFederation(t *testing.T) {
	s := NewServer("local", "db")
	today := s.Config().Today
	d := func(daysAgo int64) sqltypes.Value {
		return sqltypes.NewDateDays(today.DateDays() - daysAgo)
	}
	s.MailStore().AddMailbox(`d:\mail\smith.mmf`, []email.Message{
		{MsgID: 1, Date: d(1), From: "ann@corp.com", To: "me", Subject: "order", Body: "need 10 units"},
		{MsgID: 2, Date: d(1), From: "bob@corp.com", To: "me", Subject: "hello", Body: "hi"},
		{MsgID: 3, InReplyTo: 2, Date: d(0), From: "me", To: "bob@corp.com", Subject: "re: hello", Body: "answered"},
		{MsgID: 4, Date: d(9), From: "ann@corp.com", To: "me", Subject: "old", Body: "stale"},
		{MsgID: 5, Date: d(1), From: "zed@other.com", To: "me", Subject: "spam", Body: "x"},
	})
	// Access-class database with the Customers table.
	access := simplep.New(nil)
	if err := access.LoadCSV("Customers", "emailaddr,city\nann@corp.com,Seattle\nbob@corp.com,Seattle\nzed@other.com,Portland"); err != nil {
		t.Fatal(err)
	}
	s.RegisterProviderFactory("access", func(path string) (oledb.DataSource, *netsim.Link, error) {
		return access, nil, nil
	})

	res := q(t, s, `SELECT m1.subject, c.city
		FROM MakeTable(Mail, 'd:\mail\smith.mmf') m1,
		     MakeTable(Access, 'd:\access\Enterprise.mdb', Customers) c
		WHERE m1.date >= date(today(), -2)
		  AND m1.from = c.emailaddr
		  AND c.city = 'Seattle'
		  AND NOT EXISTS (SELECT * FROM MakeTable(Mail, 'd:\mail\smith.mmf') m2
		                  WHERE m1.msgid = m2.inreplyto)`)
	// ann's msg 1 (recent, Seattle, unanswered): yes.
	// bob's msg 2: answered by msg 3 -> excluded.
	// ann's msg 4: too old. zed: Portland.
	if len(res.Rows) != 1 || res.Rows[0][0].Str() != "order" {
		t.Errorf("rows = %v", res.Rows)
	}
}

func TestSimpleProviderCompensation(t *testing.T) {
	// A simple provider exposes rowsets only; the DHQP must evaluate the
	// whole query locally (§3.3).
	s := NewServer("local", "db")
	sp := simplep.New(netsim.LAN())
	if err := sp.LoadCSV("items", "sku:int,price:float,cat\n1,9.5,food\n2,3.25,food\n3,12.0,tools"); err != nil {
		t.Fatal(err)
	}
	if err := s.AddLinkedServer("files", sp, nil); err != nil {
		t.Fatal(err)
	}
	res := q(t, s, `SELECT cat, COUNT(*) AS n FROM files.x.dbo.items GROUP BY cat ORDER BY cat`)
	if len(res.Rows) != 2 || res.Rows[0][0].Str() != "food" || res.Rows[0][1].Int() != 2 {
		t.Errorf("rows = %v", res.Rows)
	}
	plan, _, _, _ := s.Plan(`SELECT cat FROM files.x.dbo.items WHERE price > 5`)
	if strings.Contains(plan.String(), "RemoteQuery") {
		t.Errorf("pushed SQL to a command-less provider:\n%s", plan.String())
	}
}

// TestCapabilityPushdownLevels checks that the decoder honors dialect
// levels: full SQL pushes aggregation; SQL-minimum pushes nothing beyond
// single-table filters.
func TestCapabilityPushdownLevels(t *testing.T) {
	mk := func(caps capsT) (*Server, *netsim.Link) {
		local := NewServer("local", "db")
		remote := NewServer("r", "rdb")
		remote.MustExec(`CREATE TABLE t (k INT, v INT)`)
		var b strings.Builder
		for start := 0; start < 2000; start += 500 {
			b.Reset()
			b.WriteString("INSERT INTO t VALUES ")
			for i := start; i < start+500; i++ {
				if i > start {
					b.WriteString(", ")
				}
				b.WriteString("(" + itoa(i%10) + ", " + itoa(i) + ")")
			}
			remote.MustExec(b.String())
		}
		link := netsim.LAN()
		local.AddLinkedServer("r0", sqlful.New(remote, link, caps), link)
		return local, link
	}
	queryText := `SELECT k, COUNT(*) AS n FROM r0.rdb.dbo.t WHERE v > 10 GROUP BY k`

	full, _ := mk(sqlful.FullSQLCapabilities())
	planFull, _, _, err := full.Plan(queryText)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(planFull.String(), "RemoteQuery") ||
		strings.Contains(planFull.String(), "HashAgg") {
		t.Errorf("full-SQL provider should take the whole query:\n%s", planFull.String())
	}

	min, _ := mk(sqlful.MinimalSQLCapabilities())
	planMin, _, _, err := min.Plan(queryText)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(planMin.String(), "HashAgg") && !strings.Contains(planMin.String(), "StreamAgg") {
		t.Errorf("minimal provider should aggregate locally:\n%s", planMin.String())
	}
	// Results agree regardless of capability.
	r1 := q(t, full, queryText)
	r2 := q(t, min, queryText)
	if len(r1.Rows) != len(r2.Rows) || len(r1.Rows) != 10 {
		t.Errorf("rows: full=%d min=%d", len(r1.Rows), len(r2.Rows))
	}
}

// capsT aliases to keep the helper signature short.
type capsT = oledb.Capabilities
