package storage

import (
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"cinderella/internal/synopsis"
)

// recAttrs decodes the attribute set a test record carries in its
// payload ("...|a,b,c"): the oracle derives every record's synopsis from
// its bytes, independently of the matrix.
func recAttrs(rec []byte) *synopsis.Set {
	syn := synopsis.New(0)
	i := strings.LastIndexByte(string(rec), '|')
	if i < 0 || i == len(rec)-1 {
		return syn
	}
	for _, f := range strings.Split(string(rec[i+1:]), ",") {
		a, err := strconv.Atoi(f)
		if err != nil {
			panic(err)
		}
		syn.Add(a)
	}
	return syn
}

// taggedRec builds record i's payload carrying its attribute set.
func taggedRec(i int, attrs ...int) ([]byte, *synopsis.Set) {
	parts := make([]string, len(attrs))
	for k, a := range attrs {
		parts[k] = strconv.Itoa(a)
	}
	return []byte(fmt.Sprintf("record-%04d-padding-padding-padding|%s", i, strings.Join(parts, ","))), synopsis.Of(attrs...)
}

// oracleCands is the brute-force oracle: a full Segment.Scan that
// decodes every live record's attribute set from its payload and keeps
// the records satisfying prog's combiner, in storage order.
func oracleCands(seg *Segment, prog BitmapProgram) []BitmapCand {
	var out []BitmapCand
	q := synopsis.Of(prog.Attrs...)
	seg.Scan(func(id RecordID, rec []byte) bool {
		syn := recAttrs(rec)
		keep := synopsis.Subset(q, syn)
		if prog.Disjunction {
			keep = synopsis.Intersects(syn, q)
		}
		if keep {
			out = append(out, BitmapCand{ID: id, N: int32(len(rec))})
		}
		return true
	})
	return out
}

func candsEqual(a, b []BitmapCand) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// bitmapSeg builds a segment with a mixed population: several pages, a
// variety of attribute sets (including records without attributes), and
// a sprinkling of deletes.
func bitmapSeg(t *testing.T, n int) *Segment {
	t.Helper()
	seg := NewSegment(nil)
	for i := 0; i < n; i++ {
		var b []byte
		var syn *synopsis.Set
		if i%11 == 10 {
			b, syn = taggedRec(i)
		} else {
			b, syn = taggedRec(i, i%7, 7+i%5, 12+i%3)
		}
		if _, err := seg.Insert(b, syn); err != nil {
			t.Fatal(err)
		}
	}
	// Tombstone a spread of records.
	for i := 0; i < n; i += 13 {
		pi, slot := 0, i
		for slot >= seg.pages[pi].NumSlots() {
			slot -= seg.pages[pi].NumSlots()
			pi++
		}
		if err := seg.Delete(RecordID{Page: pi, Slot: slot}); err != nil {
			t.Fatal(err)
		}
	}
	return seg
}

var bitmapProgs = []BitmapProgram{
	{Attrs: []int{1}, Disjunction: true},
	{Attrs: []int{0, 3, 9}, Disjunction: true},
	{Attrs: []int{12}, Disjunction: false},
	{Attrs: []int{2, 8}, Disjunction: false},
	{Attrs: []int{2, 8, 13}, Disjunction: false},
	{Attrs: []int{99}, Disjunction: true},  // never-seen attribute
	{Attrs: []int{99}, Disjunction: false}, // conjunction over a never-seen attribute
	{Attrs: nil, Disjunction: true},        // empty disjunction: nothing survives
	{},                                     // empty conjunction: every live record
}

// TestBitmapKernelMatchesOracle is the storage-level equivalence
// property: for disjunctive and conjunctive programs alike, the kernel's
// candidate list is exactly the records a brute-force decode of every
// live record keeps, in the same storage order, across inserts, deletes,
// vacuum, and freeze/thaw cycles.
func TestBitmapKernelMatchesOracle(t *testing.T) {
	seg := bitmapSeg(t, 700)
	var sc BitmapScratch

	check := func(stage string, v interface {
		ScanBitmap(BitmapProgram, *BitmapScratch) ([]BitmapCand, int64)
		Record(RecordID) []byte
	}, oracle *Segment) {
		t.Helper()
		for _, prog := range bitmapProgs {
			got, words := v.ScanBitmap(prog, &sc)
			if words == 0 && oracle.NumRecords() > 0 {
				t.Fatalf("%s: kernel reported zero word ops over %d records", stage, oracle.NumRecords())
			}
			want := oracleCands(oracle, prog)
			if !candsEqual(got, want) {
				t.Fatalf("%s: prog %+v: kernel yielded %d candidates, oracle %d",
					stage, prog, len(got), len(want))
			}
			// Candidate payloads must resolve.
			for _, c := range got {
				if rec := v.Record(c.ID); len(rec) != int(c.N) {
					t.Fatalf("%s: candidate %v length %d, stored %d", stage, c.ID, c.N, len(rec))
				}
			}
		}
	}

	v := seg.View()
	check("initial", &v, seg)
	seg.Vacuum()
	v = seg.View()
	check("after vacuum", &v, seg)

	// Freezing preserves record ids, so the pre-freeze segment is the
	// cold view's oracle.
	cold := FreezeSegment(seg)
	check("cold", cold.View(), seg)

	thawed := cold.Thaw()
	tv := thawed.View()
	check("thawed", &tv, thawed)
}

// TestBitmapVacuumMatchesRebuild pins Vacuum's matrix compaction: after
// deletes and a vacuum, the compacted matrix equals one rebuilt from
// scratch by inserting every surviving record, in order, with the
// attribute set decoded from its payload.
func TestBitmapVacuumMatchesRebuild(t *testing.T) {
	seg := bitmapSeg(t, 900)
	// Delete every record carrying attribute 16 so a whole row empties
	// out and must be dropped by the compaction.
	var doomed []RecordID
	seg.Scan(func(id RecordID, rec []byte) bool {
		if recAttrs(rec).Contains(16) {
			doomed = append(doomed, id)
		}
		return true
	})
	for _, id := range doomed {
		if err := seg.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	seg.Vacuum()

	rebuilt := NewSegment(nil)
	seg.Scan(func(_ RecordID, rec []byte) bool {
		if _, err := rebuilt.Insert(rec, recAttrs(rec)); err != nil {
			t.Fatal(err)
		}
		return true
	})
	if !reflect.DeepEqual(seg.bm, rebuilt.bm) {
		t.Fatalf("vacuumed matrix differs from rebuild:\n got ids %v slots %d\nwant ids %v slots %d",
			seg.bm.ids, seg.bm.slots, rebuilt.bm.ids, rebuilt.bm.slots)
	}
	for _, id := range seg.bm.ids {
		if id == 16 {
			t.Fatal("attribute 16 kept a presence row after all its records were vacuumed")
		}
	}
}

// TestBitmapChargesMatchScan pins the charging contract: a completed
// full Segment.Scan and one selective ScanBitmap call charge identical
// Stats deltas (pages, bytes, records).
func TestBitmapChargesMatchScan(t *testing.T) {
	stats := &Stats{}
	seg := NewSegment(stats)
	for i := 0; i < 400; i++ {
		syn := synopsis.Of(i % 5)
		if _, err := seg.Insert([]byte(fmt.Sprintf("rec-%04d-%s", i, "pad-pad-pad")), syn); err != nil {
			t.Fatal(err)
		}
	}
	v := seg.View()

	stats.Reset()
	seg.Scan(func(RecordID, []byte) bool { return true })
	sp, _, sb, _, sr := stats.Snapshot()

	stats.Reset()
	var sc BitmapScratch
	v.ScanBitmap(BitmapProgram{Attrs: []int{1}, Disjunction: true}, &sc)
	bp, _, bb, _, br := stats.Snapshot()

	if sp != bp || sb != bb || sr != br {
		t.Fatalf("charges differ: scan (pages=%d bytes=%d recs=%d), bitmap (pages=%d bytes=%d recs=%d)",
			sp, sb, sr, bp, bb, br)
	}
}

// TestBitmapViewStableUnderMutation captures a view, keeps mutating the
// segment, and verifies the kernel still yields exactly the captured
// candidate set — the bitmap matrix obeys the same snapshot contract as
// the pages.
func TestBitmapViewStableUnderMutation(t *testing.T) {
	seg := bitmapSeg(t, 500)
	v := seg.View()
	prog := BitmapProgram{Attrs: []int{2, 8}, Disjunction: false}
	var sc BitmapScratch
	before, _ := v.ScanBitmap(prog, &sc)
	want := append([]BitmapCand(nil), before...)

	// Churn: deletes, fresh inserts (growing the word arrays and adding
	// pages), a new attribute, then a vacuum.
	for i := 0; i < 200; i += 7 {
		pi, slot := 0, i
		for pi < len(seg.pages) && slot >= seg.pages[pi].NumSlots() {
			slot -= seg.pages[pi].NumSlots()
			pi++
		}
		_ = seg.Delete(RecordID{Page: pi, Slot: slot})
	}
	for i := 0; i < 3000; i++ {
		if _, err := seg.Insert([]byte(fmt.Sprintf("late-%05d-%s", i, "padding")), synopsis.Of(500+i%9)); err != nil {
			t.Fatal(err)
		}
	}
	seg.Vacuum()

	got, _ := v.ScanBitmap(prog, &sc)
	if !candsEqual(got, want) {
		t.Fatalf("captured view drifted: %d candidates, want %d", len(got), len(want))
	}
}

// TestBitmapColdPruneReadsNoColdBytes is the cold-tier payoff: a frozen
// partition scanned with a program matching nothing inflates no blocks
// — the hot matrix and length table answer the scan with zero cold
// bytes charged.
func TestBitmapColdPruneReadsNoColdBytes(t *testing.T) {
	stats := &Stats{}
	seg := NewSegment(stats)
	for i := 0; i < 400; i++ {
		if _, err := seg.Insert([]byte(fmt.Sprintf("rec-%04d-%s", i, "pad-pad-pad")), synopsis.Of(i%5)); err != nil {
			t.Fatal(err)
		}
	}
	cold := FreezeSegment(seg)
	stats.Reset()

	var sc BitmapScratch
	cands, _ := cold.View().ScanBitmap(BitmapProgram{Attrs: []int{42}, Disjunction: true}, &sc)
	if len(cands) != 0 {
		t.Fatalf("program over an absent attribute yielded %d candidates", len(cands))
	}
	if cp, cb := stats.ColdSnapshot(); cp != 0 || cb != 0 {
		t.Fatalf("pruned frozen scan inflated cold data: pages=%d bytes=%d; want 0", cp, cb)
	}
	// The ordinary visit charge still stands (simulated I/O is never
	// skipped), matching the hot path.
	if _, _, b, _, r := stats.Snapshot(); b != cold.LiveBytes() || r != int64(cold.NumRecords()) {
		t.Fatalf("frozen bitmap scan charged bytes=%d recs=%d, want %d/%d",
			b, r, cold.LiveBytes(), cold.NumRecords())
	}
}
