package telemetry

import (
	"fmt"
	"strings"
	"time"

	"dhqp/internal/algebra"
)

// Explain is the product of Server.ExplainAnalyze: the chosen physical plan
// annotated with the optimizer's estimates and the execution's actuals —
// the reproduction's SET STATISTICS PROFILE. The query ran for real; Stats
// carries the execution summary and per-link network metrics.
type Explain struct {
	// Plan is the executed physical plan (nodes carry Est annotations).
	Plan *algebra.Node
	// Ops maps each plan node to its actual runtime counters.
	Ops map[*algebra.Node]*OpStats
	// Stats is the execution summary (rows, elapsed, links, retries).
	Stats *QueryStats
	// RemoteSQL lists the decoded statements shipped per linked server.
	RemoteSQL []RemoteText
	// Skipped lists partitions skipped under partial-results execution.
	Skipped []string
	// Trace, when the statement ran traced, carries the distributed span
	// tree: the coordinator's statement span, its remote calls, and — over
	// trace-propagating transports — the member-side spans nested below.
	Trace *Trace
}

// Actual returns the runtime counters for a plan node (nil if the node
// never executed — e.g. pruned by a startup filter).
func (e *Explain) Actual(n *algebra.Node) *OpStats { return e.Ops[n] }

// FindOp returns the first plan node (pre-order) whose operator name
// matches, or nil — a convenience for tests asserting on one operator.
func (e *Explain) FindOp(opName string) *algebra.Node {
	var found *algebra.Node
	var walk func(n *algebra.Node)
	walk = func(n *algebra.Node) {
		if found != nil {
			return
		}
		if n.Op.OpName() == opName {
			found = n
			return
		}
		for _, k := range n.Kids {
			walk(k)
		}
	}
	walk(e.Plan)
	return found
}

// annotate renders one node's estimated-vs-actual suffix.
func (e *Explain) annotate(n *algebra.Node) string {
	var parts []string
	if n.Est != nil {
		parts = append(parts, fmt.Sprintf("est=%.0f", n.Est.Rows))
	}
	if s := e.Ops[n]; s != nil && s.Pruned() > 0 && s.Pruned() == s.Opens() {
		parts = append(parts, "pruned at startup")
	} else if s != nil {
		parts = append(parts, fmt.Sprintf("actual=%d opens=%d time=%s",
			s.ActualRows(), s.Opens(), s.WallTime().Round(time.Microsecond)))
		if s.Pruned() > 0 {
			parts = append(parts, fmt.Sprintf("pruned=%d", s.Pruned()))
		}
	} else {
		parts = append(parts, "actual=- (not executed)")
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// String renders the full EXPLAIN ANALYZE report: the annotated plan tree,
// the phase spans, the decoded remote SQL, and the per-link network table.
func (e *Explain) String() string {
	var b strings.Builder
	b.WriteString(e.Plan.RenderAnnotated(e.annotate))
	if e.Stats != nil {
		fmt.Fprintf(&b, "rows=%d elapsed=%s retries=%d",
			e.Stats.Rows, e.Stats.Elapsed.Round(time.Microsecond), e.Stats.Retries)
		if len(e.Skipped) > 0 {
			fmt.Fprintf(&b, " skipped=%v", e.Skipped)
		}
		b.WriteString("\n")
		if len(e.Stats.Spans) > 0 {
			b.WriteString("phases: ")
			for i, sp := range e.Stats.Spans {
				if i > 0 {
					b.WriteString("  ")
				}
				fmt.Fprintf(&b, "%s=%s", sp.Name, sp.Elapsed.Round(time.Microsecond))
			}
			b.WriteString("\n")
		}
	}
	if len(e.RemoteSQL) > 0 {
		b.WriteString("remote statements:\n")
		for _, rt := range e.RemoteSQL {
			fmt.Fprintf(&b, "  %s: %s\n", rt.Server, rt.Text)
		}
	}
	if e.Trace != nil {
		if spans := e.Trace.Spans(); len(spans) > 0 {
			fmt.Fprintf(&b, "trace %s:\n", e.Trace.ID())
			b.WriteString(RenderSpanTree(spans))
		}
	}
	if e.Stats != nil && len(e.Stats.Links) > 0 {
		b.WriteString("links:\n")
		fmt.Fprintf(&b, "  %-12s %8s %8s %10s %7s %8s %6s\n",
			"server", "calls", "rows", "bytes", "faults", "retries", "trips")
		for _, l := range e.Stats.Links {
			fmt.Fprintf(&b, "  %-12s %8d %8d %10d %7d %8d %6d\n",
				l.Server, l.Calls, l.Rows, l.Bytes, l.Faults, l.Retries, l.BreakerTrips)
		}
	}
	return b.String()
}
