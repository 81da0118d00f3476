package experiments

import (
	"bytes"
	"testing"
	"time"
)

// TestServerBenchSmoke runs the group-commit comparison at a tiny scale:
// both modes must make progress and the group path must coalesce.
func TestServerBenchSmoke(t *testing.T) {
	r := serverBench(8, 60*time.Millisecond)
	if r.PerOpOpsPerSec <= 0 || r.GroupOpsPerSec <= 0 {
		t.Fatalf("no progress: per-op %.0f ops/s, group %.0f ops/s", r.PerOpOpsPerSec, r.GroupOpsPerSec)
	}
	if r.HTTPGroupOpsPerSec <= 0 {
		t.Fatalf("no HTTP progress: %.0f ops/s", r.HTTPGroupOpsPerSec)
	}
	if r.GroupCommits <= 0 || r.GroupMeanBatch < 1 {
		t.Fatalf("committer never batched: %d commits, mean %.1f", r.GroupCommits, r.GroupMeanBatch)
	}
	if r.WireBatchOpsPerSec <= 0 || r.WireOps <= 0 {
		t.Fatalf("no wire progress: %.0f ops/s, %d ops", r.WireBatchOpsPerSec, r.WireOps)
	}
	if r.WireFrames >= r.WireOps {
		t.Fatalf("wire client never batched: %d frames for %d ops", r.WireFrames, r.WireOps)
	}
	// No throughput assertion here — 60ms on a loaded CI box is noise
	// territory; cmd/cinderella-bench -exp server runs the real thing.
	var buf bytes.Buffer
	r.Print(&buf)
	if buf.Len() == 0 {
		t.Fatal("empty report")
	}
}
