package exec

import (
	"reflect"
	"testing"

	"dhqp/internal/algebra"
	"dhqp/internal/telemetry"
)

// branchOn is a fan-out branch that reaches server.
func branchOn(server string) *algebra.Node {
	return &algebra.Node{Op: &algebra.RemoteQuery{Server: server}}
}

// TestDiagnosticsSkippedDedupeSort: a server skipped by several fan-out
// branches reports once in the statement's record, and the list comes back
// sorted.
func TestDiagnosticsSkippedDedupeSort(t *testing.T) {
	ctx := &Context{Stats: telemetry.NewCollector(false, nil, nil)}
	for _, s := range []string{"server3", "server1", "server3", "server2", "server1"} {
		recordSkip(ctx, branchOn(s))
	}
	want := []string{"server1", "server2", "server3"}
	if got := ctx.Stats.Skipped(); !reflect.DeepEqual(got, want) {
		t.Errorf("Skipped = %v, want %v", got, want)
	}
}

// TestDiagnosticsRetriesByServer: retries count once in the statement total
// and once against their server.
func TestDiagnosticsRetriesByServer(t *testing.T) {
	c := telemetry.NewCollector(false, nil, nil)
	c.RecordRetry("a")
	c.RecordRetry("a")
	c.RecordRetry("b")
	if got := c.Counts().Retries; got != 3 {
		t.Errorf("Retries = %d", got)
	}
	got := map[string]int64{}
	for _, l := range c.Links() {
		got[l.Server] = l.Retries
	}
	if want := map[string]int64{"a": 2, "b": 1}; !reflect.DeepEqual(got, want) {
		t.Errorf("retries by server = %v, want %v", got, want)
	}
}

// TestDiagnosticsNilSafe: an executor context without a record records
// nothing and fails nothing.
func TestDiagnosticsNilSafe(t *testing.T) {
	ctx := &Context{}
	ctx.Stats.RecordRetry("x")
	ctx.Stats.RecordTrip("x")
	ctx.Stats.RecordBackoff(1)
	ctx.Stats.RecordBatch(1)
	ctx.Stats.RecordStartup(true)
	recordSkip(ctx, branchOn("y"))
	if n := ctx.Stats.Counts(); n.Retries != 0 || n.Batches != 0 || ctx.Stats.Skipped() != nil || ctx.Stats.Links() != nil {
		t.Error("nil record returned data")
	}
}
