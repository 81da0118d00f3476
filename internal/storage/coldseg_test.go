package storage

import (
	"fmt"
	"math/rand"
	"testing"

	"cinderella/internal/synopsis"
)

// buildSegment fills a segment with n deterministic records tagged with
// rotating synopses and returns the expected id → payload map.
func buildSegment(t *testing.T, stats *Stats, n int, seed int64) (*Segment, map[RecordID]string) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	seg := NewSegment(stats)
	want := make(map[RecordID]string, n)
	for i := 0; i < n; i++ {
		rec := fmt.Sprintf("record-%d-%d-%s", seed, i, string(make([]byte, rng.Intn(200))))
		id, err := seg.Insert([]byte(rec), synopsis.Of(i%7))
		if err != nil {
			t.Fatal(err)
		}
		want[id] = rec
	}
	return seg, want
}

func TestColdFreezeScanRoundTrip(t *testing.T) {
	stats := &Stats{}
	seg, want := buildSegment(t, stats, 500, 1)
	cold := FreezeSegment(seg)

	if cold.NumRecords() != seg.NumRecords() || cold.LiveBytes() != seg.LiveBytes() {
		t.Fatalf("cold counters %d/%d, want %d/%d",
			cold.NumRecords(), cold.LiveBytes(), seg.NumRecords(), seg.LiveBytes())
	}
	if cold.CompressedBytes() >= cold.RawBytes() {
		t.Fatalf("no compression: %d >= %d", cold.CompressedBytes(), cold.RawBytes())
	}

	got := make(map[RecordID]string)
	v := cold.View()
	var sc BitmapScratch
	cands, _ := v.ScanBitmap(BitmapProgram{}, &sc)
	for _, c := range cands {
		got[c.ID] = string(v.Record(c.ID))
	}
	if len(got) != len(want) {
		t.Fatalf("scanned %d records, want %d", len(got), len(want))
	}
	for id, rec := range want {
		if got[id] != rec {
			t.Fatalf("record %v = %q, want %q", id, got[id], rec)
		}
	}

	// The scan decompressed every block exactly once and charged the
	// cold counters for each raw page.
	cp, cb := stats.ColdSnapshot()
	if cp != int64(cold.NumPages()) || cb != cold.RawBytes() {
		t.Fatalf("cold charges %d pages/%d bytes, want %d/%d", cp, cb, cold.NumPages(), cold.RawBytes())
	}
	if cold.ColdReads() != int64(len(cold.blocks)) {
		t.Fatalf("ColdReads = %d, want %d blocks", cold.ColdReads(), len(cold.blocks))
	}
}

func TestColdThawPreservesRecordIDs(t *testing.T) {
	stats := &Stats{}
	seg, want := buildSegment(t, stats, 300, 2)
	cold := FreezeSegment(seg)
	thawed := cold.Thaw()

	if thawed.NumRecords() != len(want) {
		t.Fatalf("thawed %d records, want %d", thawed.NumRecords(), len(want))
	}
	for id, rec := range want {
		got, err := thawed.Read(id)
		if err != nil {
			t.Fatalf("read %v after thaw: %v", id, err)
		}
		if string(got) != rec {
			t.Fatalf("record %v changed across freeze/thaw", id)
		}
	}
	// The matrix survives the round trip: every record is still found
	// by its attribute.
	var sc BitmapScratch
	tv := thawed.View()
	for a := 0; a < 7; a++ {
		cands, _ := tv.ScanBitmap(BitmapProgram{Attrs: []int{a}}, &sc)
		for _, c := range cands {
			if id := c.ID; want[id] == "" {
				t.Fatalf("attribute %d yielded unknown record %v after thaw", a, id)
			}
		}
		if len(cands) == 0 {
			t.Fatalf("attribute %d lost across freeze/thaw", a)
		}
	}

	// The thawed segment is mutable and must not corrupt still-live
	// cold views: append and delete, then verify the cold view again.
	if _, err := thawed.Insert([]byte("appended-after-thaw"), synopsis.Of(1)); err != nil {
		t.Fatal(err)
	}
	var anyID RecordID
	for id := range want {
		anyID = id
		break
	}
	if err := thawed.Delete(anyID); err != nil {
		t.Fatal(err)
	}
	v := cold.View()
	cands, _ := v.ScanBitmap(BitmapProgram{}, &sc)
	for _, c := range cands {
		if string(v.Record(c.ID)) != want[c.ID] {
			t.Fatalf("cold view of %v changed after thawed-segment mutation", c.ID)
		}
	}
	if n := len(cands); n != len(want) {
		t.Fatalf("cold view sees %d records after mutations, want %d", n, len(want))
	}
}

// TestColdPointReadChargesCache verifies the admission path: point
// reads touch the buffer cache under the cold identity and charge
// ordinary + cold I/O.
func TestColdPointReadChargesCache(t *testing.T) {
	stats := &Stats{}
	seg, want := buildSegment(t, stats, 100, 6)
	cache := NewBufferCache(32)
	seg.AttachCache(cache)
	cold := FreezeSegment(seg)

	var ids []RecordID
	for id := range want {
		ids = append(ids, id)
	}
	stats.Reset()
	cache.Reset()
	if _, err := cold.Read(ids[0]); err != nil {
		t.Fatal(err)
	}
	if _, m := cache.Stats(); m != 1 {
		t.Fatalf("first cold read cache misses = %d, want 1", m)
	}
	if _, err := cold.Read(ids[0]); err != nil {
		t.Fatal(err)
	}
	if h, _ := cache.Stats(); h != 1 {
		t.Fatalf("repeat cold read cache hits = %d, want 1", h)
	}
	pr, _, _, _, rr := stats.Snapshot()
	if pr != 2 || rr != 2 {
		t.Fatalf("ordinary charges pages=%d records=%d, want 2/2", pr, rr)
	}
	if cp, _ := stats.ColdSnapshot(); cp == 0 {
		t.Fatal("no cold pages charged for the first decompression")
	}
}
