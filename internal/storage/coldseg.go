package storage

import (
	"bytes"
	"compress/flate"
	"io"
	"sync"
	"sync/atomic"
)

// The cold tier: a frozen partition's pages, compressed.
//
// A ColdSegment is the read-only replica of a vacuumed Segment. The 8 KiB
// page images are concatenated into fixed-size runs ("blocks"), each run
// deflate-compressed independently, so a point read or a scan
// decompresses only the blocks it touches. The presence matrix,
// the per-slot length table, and the live counters stay hot
// (uncompressed, in memory): partition pruning and the kernel's decode
// skip keep working without touching a single cold byte.
//
// Reads that survive pruning go through the block-decompression
// admission path: each visited page is touched in the shared BufferCache
// under the cold segment's own cache identity, and every block
// decompression is charged to the Stats cold-read counters (pages +
// raw bytes) on top of the ordinary per-page/per-record read charges —
// Definition-1 EFFICIENCY stays measurable across tiers, and the
// decompression count is the tiering manager's reheat signal.
//
// Durability: a cold segment lives only in memory. The write-ahead log
// is the row source of truth and placement is a deterministic function
// of it, so the durable layer persists just the list of frozen
// partition ids and re-freezes them from the replayed rows on reopen.

// coldBlockPages is the number of page images per compression block
// (128 KiB raw per block).
const coldBlockPages = 16

// coldResidentBlocks bounds the per-segment decompressed-block cache: a
// scan in flight keeps its current block (and Record lookups into it)
// hot without re-inflating per record, while the steady-state resident
// cost of a cold segment stays two blocks.
const coldResidentBlocks = 2

// coldBlock is one compressed run of page images.
type coldBlock struct {
	data      []byte // deflate-compressed concatenation of raw pages
	firstPage int
	numPages  int
}

// ColdSegment is a frozen partition's compressed, read-only page store
// plus its hot metadata. Safe for concurrent readers; it is never
// mutated after construction (mutations thaw the partition first).
type ColdSegment struct {
	blocks []coldBlock
	// bm is the attribute-presence bitmap matrix carried over from the
	// frozen segment, and lens the per-slot stored lengths — both hot,
	// so the kernel can skip frozen records without inflating a single
	// cold block.
	bm        bitmat
	lens      [][]uint16
	numPages  int
	live      int
	bytes     int64 // live payload bytes (raw)
	compBytes int64 // total compressed block bytes
	stats     *Stats
	cache     *BufferCache
	cacheID   uint64

	// Decompressed-block cache (tiny LRU) and the reheat signal.
	dmu       sync.Mutex
	resident  map[int][]*Page
	order     []int        // resident block ids, oldest first
	coldReads atomic.Int64 // block decompressions since freeze
}

// FreezeSegment compresses a segment's page chain into a ColdSegment,
// retaining the presence matrix and live counters hot. The caller
// should have vacuumed the segment first (freeze compacts by
// construction at the table layer) and must hold exclusive access. The compression is
// charged to the write counters like a physical copy to the cold tier.
func FreezeSegment(s *Segment) *ColdSegment {
	c := &ColdSegment{
		bm:       s.bm,
		lens:     make([][]uint16, len(s.pages)),
		numPages: len(s.pages),
		live:     s.live,
		bytes:    s.bytes,
		stats:    s.stats,
		cache:    s.cache,
		cacheID:  segmentIDs.Add(1),
		resident: make(map[int][]*Page),
	}
	for pi, p := range s.pages {
		ln := make([]uint16, p.NumSlots())
		for slot := range ln {
			_, n := p.slot(slot)
			ln[slot] = uint16(n)
		}
		c.lens[pi] = ln
	}
	for first := 0; first < len(s.pages); first += coldBlockPages {
		n := len(s.pages) - first
		if n > coldBlockPages {
			n = coldBlockPages
		}
		var buf bytes.Buffer
		w, err := flate.NewWriter(&buf, flate.DefaultCompression)
		if err != nil {
			panic("storage: flate writer: " + err.Error())
		}
		for _, p := range s.pages[first : first+n] {
			if _, err := w.Write(p.buf[:]); err != nil {
				panic("storage: freeze compress: " + err.Error())
			}
		}
		if err := w.Close(); err != nil {
			panic("storage: freeze compress: " + err.Error())
		}
		data := append([]byte(nil), buf.Bytes()...)
		c.blocks = append(c.blocks, coldBlock{
			data:      data,
			firstPage: first,
			numPages:  n,
		})
		c.compBytes += int64(len(data))
	}
	c.stats.addWrite(int64(c.numPages), c.compBytes)
	return c
}

// AttachCache routes the cold segment's page touches through the shared
// buffer cache (the admission path for decompressed cold pages).
func (c *ColdSegment) AttachCache(cache *BufferCache) { c.cache = cache }

// NumPages returns the number of frozen page images.
func (c *ColdSegment) NumPages() int { return c.numPages }

// NumRecords returns the live record count at freeze time.
func (c *ColdSegment) NumRecords() int { return c.live }

// LiveBytes returns the raw live payload bytes at freeze time.
func (c *ColdSegment) LiveBytes() int64 { return c.bytes }

// RawBytes returns the uncompressed page footprint.
func (c *ColdSegment) RawBytes() int64 { return int64(c.numPages) * PageSize }

// CompressedBytes returns the resident compressed footprint.
func (c *ColdSegment) CompressedBytes() int64 { return c.compBytes }

// ColdReads returns the number of block decompressions since freeze —
// the tiering manager's reheat signal.
func (c *ColdSegment) ColdReads() int64 { return c.coldReads.Load() }

// page returns the decompressed page pi, inflating its block on demand.
// Decompressions charge the cold-read counters; the returned page is
// immutable and stays valid after eviction from the resident cache.
func (c *ColdSegment) page(pi int) *Page {
	bi := pi / coldBlockPages
	b := &c.blocks[bi]
	c.dmu.Lock()
	pages, ok := c.resident[bi]
	if !ok {
		pages = c.inflate(b)
		c.resident[bi] = pages
		c.order = append(c.order, bi)
		if len(c.order) > coldResidentBlocks {
			evict := c.order[0]
			c.order = c.order[1:]
			delete(c.resident, evict)
		}
		c.coldReads.Add(1)
		c.stats.addColdRead(int64(b.numPages), int64(b.numPages)*PageSize)
	}
	c.dmu.Unlock()
	return pages[pi-b.firstPage]
}

// inflate decompresses one block into fresh pages. Blocks never leave
// memory, so a decompression failure here is a program bug, not an I/O
// condition.
func (c *ColdSegment) inflate(b *coldBlock) []*Page {
	r := flate.NewReader(bytes.NewReader(b.data))
	pages := make([]*Page, b.numPages)
	for i := range pages {
		p := &Page{}
		if _, err := io.ReadFull(r, p.buf[:]); err != nil {
			panic("storage: cold block inflate: " + err.Error())
		}
		pages[i] = p
	}
	r.Close()
	return pages
}

// Read returns the record bytes for id, decompressing its block if
// needed. The slice aliases an immutable decompressed page.
func (c *ColdSegment) Read(id RecordID) ([]byte, error) {
	if id.Page < 0 || id.Page >= c.numPages {
		return nil, ErrNotFound
	}
	p := c.page(id.Page)
	rec, ok := p.Read(id.Slot)
	if !ok {
		return nil, ErrNotFound
	}
	if c.cache != nil {
		c.cache.touch(c.cacheID, id.Page)
	}
	c.stats.addRead(1, int64(len(rec)), 1)
	return rec, nil
}

// Thaw rebuilds a hot segment from the frozen page images. Record ids
// are preserved exactly (the pages are byte-identical to the vacuumed
// chain that was frozen), so the table's row index needs no remapping.
// The inflation is charged to the cold-read counters and the rebuilt
// chain to the write counters, like a physical copy back to the hot
// tier. Pages are cloned so still-published cold views never alias a
// mutable page.
func (c *ColdSegment) Thaw() *Segment {
	s := &Segment{
		pages: make([]*Page, c.numPages),
		bm:    c.bm,
		stats: c.stats,
		live:  c.live,
		bytes: c.bytes,
		cache: c.cache,
	}
	for pi := 0; pi < c.numPages; pi++ {
		s.pages[pi] = c.page(pi).clone()
	}
	s.stats.addWrite(int64(c.numPages), c.bytes)
	return s
}

// DropFromCache evicts the cold identity's admitted pages from the
// shared buffer cache (partition thawed or dropped).
func (c *ColdSegment) DropFromCache() {
	if c.cache != nil {
		c.cache.evictSegment(c.cacheID)
	}
}

// ColdView is the snapshot-read handle of a cold segment, mirroring
// SegView. The segment is immutable, so the view is just a pointer.
type ColdView struct {
	c *ColdSegment
}

// View returns the cold segment's read view.
func (c *ColdSegment) View() ColdView {
	return ColdView{c: c}
}

// Cold reports whether the view is backed by a cold segment (a zero
// ColdView is not).
func (v ColdView) Cold() bool { return v.c != nil }

// NumRecords returns the live record count at freeze time.
func (v ColdView) NumRecords() int { return v.c.live }

// LiveBytes returns the raw live payload bytes at freeze time.
func (v ColdView) LiveBytes() int64 { return v.c.bytes }

// Record returns the payload bytes of a live record previously yielded
// by ScanBitmap. Like SegView.Record it charges no additional ordinary
// I/O; if the record's block was evicted from the resident cache in the
// meantime, the re-inflation is charged to the cold counters.
func (v ColdView) Record(id RecordID) []byte {
	p := v.c.page(id.Page)
	off, n := p.slot(id.Slot)
	return p.buf[off : off+n]
}
