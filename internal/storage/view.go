package storage

// SegView is an immutable snapshot of a segment: the page chain, the
// presence matrix, and the live counters as of View(). It stays valid —
// and returns exactly the captured state — under any concurrent mutation
// of the segment, without locks:
//
//   - The view owns a private copy of the outer page array, so the
//     segment may grow or swap elements freely.
//   - The kernel bounds its iteration by the matrix position count
//     captured at View() time, so the mutable page header and any
//     appended slots/payloads are never read.
//   - Deletes and vacuums copy pages instead of mutating them, so every
//     page reachable from a view is frozen.
//
// I/O accounting is identical to Segment.Scan: the kernel (ScanBitmap)
// charges every page, every live record, and every live byte in one bulk
// operation before pruning. A kernel skip avoids decode CPU only, never
// simulated I/O, which keeps QueryReport and EFFICIENCY independent of
// how many records the kernel rules out.
type SegView struct {
	pages   []*Page
	bm      bmView
	live    int
	bytes   int64
	stats   *Stats
	cache   *BufferCache
	cacheID uint64
}

// View publishes the segment's current state as an immutable view. The
// caller must hold the segment's exclusive lock (the table layer calls it
// at the end of each mutation, before releasing the write lock).
func (s *Segment) View() SegView {
	pages := make([]*Page, len(s.pages))
	copy(pages, s.pages)
	return SegView{
		pages:   pages,
		bm:      s.bm.view(),
		live:    s.live,
		bytes:   s.bytes,
		stats:   s.stats,
		cache:   s.cache,
		cacheID: s.cacheID,
	}
}

// NumRecords returns the live record count at capture time.
func (v *SegView) NumRecords() int { return v.live }

// LiveBytes returns the live payload bytes at capture time.
func (v *SegView) LiveBytes() int64 { return v.bytes }

// Record returns the payload bytes of a live record previously yielded by
// ScanBitmap. The slice aliases frozen page memory and stays valid for
// the view's lifetime. No additional I/O is charged: ScanBitmap already
// accounted for the record's visit.
func (v *SegView) Record(id RecordID) []byte {
	off, n := v.pages[id.Page].slot(id.Slot)
	return v.pages[id.Page].buf[off : off+n]
}
