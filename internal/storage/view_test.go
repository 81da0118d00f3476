package storage

import (
	"fmt"
	"testing"

	"cinderella/internal/synopsis"
)

// TestViewImmutableUnderMutation is the storage-level snapshot property:
// a view captured before deletes, appends, and vacuum keeps returning
// exactly the captured records, bytes, and attribute rows.
func TestViewImmutableUnderMutation(t *testing.T) {
	seg := NewSegment(nil)
	type rec struct {
		id  RecordID
		b   string
		syn *synopsis.Set
	}
	var want []rec
	for i := 0; i < 300; i++ {
		b := fmt.Sprintf("record-%04d-%s", i, "padding-padding-padding-padding")
		syn := synopsis.Of(i % 7)
		id, err := seg.Insert([]byte(b), syn)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, rec{id, b, syn})
	}

	v := seg.View()

	// Mutate: delete a third, append enough to grow pages and extend
	// the captured tail page's slot directory, then vacuum everything.
	for i, r := range want {
		if i%3 == 0 {
			if err := seg.Delete(r.id); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < 2000; i++ {
		if _, err := seg.Insert([]byte(fmt.Sprintf("late-%05d-%s", i, "padding-padding")), synopsis.Of(i%7)); err != nil {
			t.Fatal(err)
		}
	}
	seg.Vacuum()

	if v.NumRecords() != len(want) {
		t.Fatalf("view live count %d, want %d", v.NumRecords(), len(want))
	}
	// Every attribute row still yields exactly its captured records: the
	// deletes came after the capture.
	var sc BitmapScratch
	for a := 0; a < 7; a++ {
		var live []rec
		for _, r := range want {
			if r.syn.Contains(a) {
				live = append(live, r)
			}
		}
		cands, _ := v.ScanBitmap(BitmapProgram{Attrs: []int{a}}, &sc)
		if len(cands) != len(live) {
			t.Fatalf("attribute %d: view yielded %d records, want %d", a, len(cands), len(live))
		}
		for i, c := range cands {
			w := live[i]
			if c.ID != w.id || int(c.N) != len(w.b) {
				t.Fatalf("attribute %d record %d = (%v,%d), want (%v,%d)", a, i, c.ID, c.N, w.id, len(w.b))
			}
			if got := string(v.Record(c.ID)); got != w.b {
				t.Fatalf("attribute %d record %d bytes = %q, want %q", a, i, got, w.b)
			}
		}
	}
}

// TestViewChargesLikeLockedScan pins the accounting contract: a kernel
// scan of a view charges the shared Stats exactly like Segment.Scan (the
// scan the write-locked paths use) over the same data — every page and
// every live record, whether or not the caller decodes.
func TestViewChargesLikeLockedScan(t *testing.T) {
	mk := func() *Segment {
		seg := NewSegment(&Stats{})
		var ids []RecordID
		for i := 0; i < 500; i++ {
			b := fmt.Sprintf("record-%04d-%s", i, "padding-padding-padding")
			id, err := seg.Insert([]byte(b), synopsis.Of(i%5))
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, id)
		}
		for i := 0; i < len(ids); i += 4 {
			if err := seg.Delete(ids[i]); err != nil {
				t.Fatal(err)
			}
		}
		seg.Stats().Reset()
		return seg
	}

	locked := mk()
	locked.Scan(func(_ RecordID, _ []byte) bool { return true })
	lpr, _, lbr, _, lrr := locked.Stats().Snapshot()

	snap := mk()
	v := snap.View()
	var sc BitmapScratch
	v.ScanBitmap(BitmapProgram{Attrs: []int{0}, Disjunction: true}, &sc)
	spr, _, sbr, _, srr := snap.Stats().Snapshot()

	if lpr != spr || lbr != sbr || lrr != srr {
		t.Fatalf("locked scan charged (pages=%d bytes=%d records=%d), view scan (pages=%d bytes=%d records=%d)",
			lpr, lbr, lrr, spr, sbr, srr)
	}
}
