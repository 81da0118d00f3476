package experiments

import (
	"bytes"
	"strings"
	"testing"
)

func TestHotpath(t *testing.T) {
	r := Hotpath(small())
	if r.FusedNsPerRating <= 0 || r.FourCallNsPerRating <= 0 {
		t.Fatalf("rating timings missing: %+v", r)
	}
	if r.InsertScanNsPerOp <= 0 {
		t.Fatalf("insert timings missing: %+v", r)
	}
	if r.Queries == 0 || r.SerialMsPerQuery <= 0 || r.ParallelMsPerQuery <= 0 {
		t.Fatalf("query timings missing: %+v", r)
	}
	if r.Partitions == 0 {
		t.Fatal("no partitions recorded")
	}
	var buf bytes.Buffer
	r.Print(&buf)
	if !strings.Contains(buf.String(), "HOTPATH") || !strings.Contains(buf.String(), "rating kernel") {
		t.Fatalf("Print output wrong: %q", buf.String())
	}
}
