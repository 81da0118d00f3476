package storage

import (
	"math/bits"
	"sort"
	"sync/atomic"

	"cinderella/internal/synopsis"
)

// The attribute-presence bitmap matrix: the only record-level pruning
// structure.
//
// The matrix answers "which records have attribute a?" as one []uint64
// bitset per attribute over *slot positions* (a dense numbering of every
// slot in the page chain, in storage order). Every record is inserted
// with its exact attribute set, so the rows are exact. A query's
// predicate compiles into a handful of word operations: AND the required
// attributes' bitsets (OR for Select's union shape), fold in the live
// bitset from the slot directory, and every set bit of the result is a
// record that must be decoded — 64 records per machine word, no
// per-record pointer chases.
//
// Maintenance:
//
//   - Insert sets the live bit and one bit per attribute at the
//     record's fresh position.
//   - Delete copies the live bitset, clears the bit, and swaps the copy
//     in; the attribute bits go stale but are masked by live at
//     evaluation time.
//   - Vacuum compacts every row over the surviving positions; freeze
//     hands the vacuumed matrix to the cold segment unchanged.
//
// Concurrency follows the segment's append-only/copy-on-write
// discipline. A published view captures the matrix's slice headers and
// its position count; the only memory a writer later touches in place
// are word-array elements at *fresh* positions (>= the captured count),
// which readers mask off. Those in-place bit stores use atomic writes
// and the kernel uses atomic loads, so the overlap is well-defined (on
// the word, never on the captured bits). Everything that cannot be
// expressed as a fresh-position store — clearing a live bit, growing
// the word arrays, registering a new attribute — copies and swaps like
// a page delete does.

// bitmat is a segment's attribute-presence matrix. All word arrays
// (live and every attrs row) always have identical length, grown
// together, so the kernel indexes them uniformly.
type bitmat struct {
	ids      []int      // sorted attribute ids with a presence row; COW
	attrs    [][]uint64 // parallel to ids; outer COW, inner grown by COW
	live     []uint64   // live-record bitset (slot-directory tombstones folded in)
	pageBase []int      // position of each page's slot 0
	slots    int        // total positions (sum of per-page slot counts)
}

// bmView is the immutable capture of a bitmat published inside a
// SegView (and held by ColdSegment after a freeze). It is a plain
// struct copy taken under the segment's exclusive lock.
type bmView struct {
	ids      []int
	attrs    [][]uint64
	live     []uint64
	pageBase []int
	slots    int
}

func (m *bitmat) view() bmView {
	return bmView{
		ids:      m.ids,
		attrs:    m.attrs,
		live:     m.live,
		pageBase: m.pageBase,
		slots:    m.slots,
	}
}

// notePage registers a freshly appended page. Append may write one
// element past every captured header's length — memory no reader
// reaches — and is therefore safe without copying.
func (m *bitmat) notePage() {
	m.pageBase = append(m.pageBase, m.slots)
}

// setBit atomically sets bit pos in w. The writer is single (segment
// mutations are exclusive); the atomicity is for concurrent kernel
// loads of the same word.
func setBit(w []uint64, pos int) {
	i := pos >> 6
	atomic.StoreUint64(&w[i], atomic.LoadUint64(&w[i])|1<<(uint(pos)&63))
}

// ensure grows every word array to cover position pos. Growth copies
// and swaps (captured views keep the old arrays, whose length covers
// every captured position by construction).
func (m *bitmat) ensure(pos int) {
	need := pos>>6 + 1
	if need <= len(m.live) {
		return
	}
	words := len(m.live) * 2
	if words < need {
		words = need
	}
	if words < 4 {
		words = 4
	}
	grow := func(old []uint64) []uint64 {
		w := make([]uint64, words)
		copy(w, old)
		return w
	}
	m.live = grow(m.live)
	nattrs := make([][]uint64, len(m.attrs))
	for i, row := range m.attrs {
		nattrs[i] = grow(row)
	}
	m.attrs = nattrs
}

// attrRow returns the presence row for attribute id, registering it
// (copy-on-write on the outer slices) on first sight.
func (m *bitmat) attrRow(id int) []uint64 {
	i := sort.SearchInts(m.ids, id)
	if i < len(m.ids) && m.ids[i] == id {
		return m.attrs[i]
	}
	nids := make([]int, len(m.ids)+1)
	nattrs := make([][]uint64, len(m.attrs)+1)
	copy(nids, m.ids[:i])
	copy(nattrs, m.attrs[:i])
	nids[i] = id
	nattrs[i] = make([]uint64, len(m.live))
	copy(nids[i+1:], m.ids[i:])
	copy(nattrs[i+1:], m.attrs[i:])
	m.ids = nids
	m.attrs = nattrs
	return nattrs[i]
}

// noteInsert records a fresh position: the record just appended at the
// end of the page chain, with its attribute set.
func (m *bitmat) noteInsert(syn *synopsis.Set) {
	pos := m.slots
	m.ensure(pos)
	setBit(m.live, pos)
	syn.ForEach(func(id int) {
		setBit(m.attrRow(id), pos)
	})
	m.slots++
}

// compactRows fills m's (empty) attribute rows from old, where keep[i]
// is the old position of m's position i: each row keeps the bits of the
// surviving positions, and rows left empty are dropped. m is private to
// the writer until published, so plain stores suffice.
func (m *bitmat) compactRows(old *bitmat, keep []int) {
	for ai, row := range old.attrs {
		var nrow []uint64
		for i, pos := range keep {
			if row[pos>>6]&(1<<(uint(pos)&63)) == 0 {
				continue
			}
			if nrow == nil {
				nrow = make([]uint64, len(m.live))
			}
			nrow[i>>6] |= 1 << (uint(i) & 63)
		}
		if nrow != nil {
			m.ids = append(m.ids, old.ids[ai])
			m.attrs = append(m.attrs, nrow)
		}
	}
}

// noteDelete clears the live bit for (page, slot) via copy-on-write.
// The attribute bits are left stale: live masks them out of every
// kernel evaluation.
func (m *bitmat) noteDelete(page, slot int) {
	if page >= len(m.pageBase) {
		return
	}
	pos := m.pageBase[page] + slot
	if pos >= m.slots {
		return
	}
	nlive := make([]uint64, len(m.live))
	copy(nlive, m.live)
	nlive[pos>>6] &^= 1 << (uint(pos) & 63)
	m.live = nlive
}

// BitmapProgram is a compiled scan predicate for the word-parallel
// kernel: the attribute ids whose presence rows are combined, and the
// combiner. Disjunction=true is Select's union shape ("has any of
// these"); false is SelectWhere's conjunction shape ("has all of
// these"). The empty conjunction (the zero BitmapProgram) yields every
// live record — ScanAll's program.
type BitmapProgram struct {
	Attrs       []int
	Disjunction bool
}

// BitmapCand is one candidate yielded by the kernel: a live record that
// satisfies the program, with its stored length. Presence rows are
// exact, so a candidate provably has the program's attributes; only
// value predicates need the decoded record.
type BitmapCand struct {
	ID RecordID
	N  int32
}

// BitmapScratch holds the kernel's reusable per-scan buffers: the
// resolved attribute rows, the candidate bitset, and the candidate
// list. The table layer pools these so the steady-state scan loop does
// not allocate.
type BitmapScratch struct {
	sets  [][]uint64
	cand  []uint64
	cands []BitmapCand
}

// run evaluates prog over the matrix and returns the candidate list
// (aliasing sc's buffers, valid until sc is reused) plus the number of
// 64-bit word operations performed. lens maps a page to its slot-length
// lookup; it must report 0 for tombstoned slots.
func (bm *bmView) run(prog BitmapProgram, sc *BitmapScratch, lens func(page, slot int) int) (cands []BitmapCand, words int64) {
	nw := (bm.slots + 63) >> 6
	if nw == 0 {
		return sc.cands[:0], 0
	}

	// Resolve the program's attributes to presence rows. A nil entry is
	// an attribute this partition has never seen: identically zero.
	sets := sc.sets[:0]
	for _, id := range prog.Attrs {
		i := sort.SearchInts(bm.ids, id)
		if i < len(bm.ids) && bm.ids[i] == id {
			sets = append(sets, bm.attrs[i])
		} else {
			sets = append(sets, nil)
		}
	}
	sc.sets = sets

	// Phase 1: the candidate bitset, one word at a time —
	//
	//	cand = combine(attr rows) & live
	//
	// Word loads from the matrix are atomic: a concurrent insert may
	// store fresh bits into the final word, which the slots mask below
	// hides. words counts every 64-bit operation, the kernel's unit of
	// work for the scan_bitmap_words counter.
	if cap(sc.cand) < nw {
		sc.cand = make([]uint64, nw)
	}
	cand := sc.cand[:nw]
	for wi := 0; wi < nw; wi++ {
		var w uint64
		if prog.Disjunction {
			for _, s := range sets {
				if s != nil {
					w |= atomic.LoadUint64(&s[wi])
				}
			}
		} else {
			w = ^uint64(0)
			for _, s := range sets {
				if s == nil {
					w = 0
					break
				}
				w &= atomic.LoadUint64(&s[wi])
			}
		}
		w &= atomic.LoadUint64(&bm.live[wi])
		cand[wi] = w
		words += int64(len(sets)) + 1
	}
	if tail := uint(bm.slots) & 63; tail != 0 {
		cand[nw-1] &= 1<<tail - 1
	}

	// Phase 2: walk the set bits in position order, translating each to
	// (page, slot) with a monotone cursor over pageBase.
	out := sc.cands[:0]
	pi := 0
	for wi, w := range cand {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			w &^= 1 << uint(b)
			pos := wi<<6 + b
			for pi+1 < len(bm.pageBase) && pos >= bm.pageBase[pi+1] {
				pi++
			}
			slot := pos - bm.pageBase[pi]
			n := lens(pi, slot)
			if n == 0 {
				continue // tombstone; live bit should already mask these
			}
			out = append(out, BitmapCand{ID: RecordID{Page: pi, Slot: slot}, N: int32(n)})
		}
	}
	sc.cands = out
	return out, words
}

// ScanBitmap runs the word-parallel kernel over the view: it charges
// the partition's full visit — every page and every live record's
// bytes, identical to a completed Segment.Scan — in one bulk operation,
// then returns the candidate records the program could not rule out.
// The caller decodes candidates via Record; everything else was skipped
// at 64 records per word op.
//
// The returned slice aliases sc's buffers and is valid until sc's next
// use. words is the number of 64-bit word operations performed.
func (v *SegView) ScanBitmap(prog BitmapProgram, sc *BitmapScratch) (cands []BitmapCand, words int64) {
	for pi := range v.pages {
		if v.cache != nil {
			v.cache.touch(v.cacheID, pi)
		}
	}
	v.stats.addRead(int64(len(v.pages)), v.bytes, int64(v.live))
	return v.bm.run(prog, sc, func(page, slot int) int {
		_, n := v.pages[page].slot(slot)
		return n
	})
}

// ScanBitmap is ColdView's kernel entry point. The ordinary charges are
// identical to the hot path; candidate record lengths come from the hot
// per-slot length table, so a frozen partition whose candidates all
// fall in a few blocks only ever inflates those blocks (Record charges
// the cold counters on inflation).
func (v ColdView) ScanBitmap(prog BitmapProgram, sc *BitmapScratch) (cands []BitmapCand, words int64) {
	c := v.c
	for pi := 0; pi < c.numPages; pi++ {
		if c.cache != nil {
			c.cache.touch(c.cacheID, pi)
		}
	}
	c.stats.addRead(int64(c.numPages), c.bytes, int64(c.live))
	bm := c.bm.view()
	return bm.run(prog, sc, func(page, slot int) int {
		return int(c.lens[page][slot])
	})
}
