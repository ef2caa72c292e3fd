// Email federation: the paper's §2.4 scenario. A salesman wants all mail
// received from Seattle customers in the last two days that he has not yet
// replied to — joining a mailbox file (mail provider, MakeTable TVF) with a
// Customers table in an Access-class database, with a correlated NOT EXISTS
// that the binder unrolls into an anti-join.
package main

import (
	"fmt"
	"log"

	"dhqp"
	"dhqp/internal/oledb"
	"dhqp/internal/workload"
)

func main() {
	s := dhqp.NewServer("local", "db")
	today := s.Config().Today

	// The mailbox file d:\mail\smith.mmf.
	senders := []string{
		"ann@nw.com", "bob@nw.com", "cat@nw.com", "dan@south.com", "eve@south.com",
	}
	msgs := workload.GenMailbox(60, today, senders, 11)
	s.MailStore().AddMailbox(`d:\mail\smith.mmf`, msgs)

	// The Access database d:\access\Enterprise.mdb with Customers.
	access := dhqp.SimpleProvider(nil)
	err := access.LoadCSV("Customers", `emailaddr,city,address
ann@nw.com,Seattle,12 Pine St
bob@nw.com,Seattle,9 Oak Ave
cat@nw.com,Tacoma,77 Elm Rd
dan@south.com,Austin,3 Sun Blvd
eve@south.com,Seattle,41 Rain Way`)
	if err != nil {
		log.Fatal(err)
	}
	s.RegisterProviderFactory("access", func(path string) (oledb.DataSource, *dhqp.Link, error) {
		return access, nil, nil
	})

	// The paper's query (§2.4), in this engine's MakeTable syntax.
	query := `
		SELECT m1.subject, m1.from, c.address
		FROM MakeTable(Mail, 'd:\mail\smith.mmf') m1,
		     MakeTable(Access, 'd:\access\Enterprise.mdb', Customers) c
		WHERE m1.date >= date(today(), -2)
		  AND m1.from = c.emailaddr
		  AND c.city = 'Seattle'
		  AND NOT EXISTS (SELECT * FROM MakeTable(Mail, 'd:\mail\smith.mmf') m2
		                  WHERE m1.msgid = m2.inreplyto)
		ORDER BY m1.subject`
	plan, _, _, err := s.Plan(query)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("-- plan (NOT EXISTS became an anti-join over the mail rowsets):")
	fmt.Print(plan.String())

	res, err := s.Query(query, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n-- unanswered mail from Seattle customers in the last two days (%d messages):\n", len(res.Rows))
	fmt.Print(res.Display())
}
