package table

import (
	"sync"

	"cinderella/internal/storage"
	"cinderella/internal/synopsis"
)

// The scan path.
//
// Select, SelectWhere, and ScanAll all scan a captured snapshot through
// the word-parallel kernel (storage.ScanBitmap): the query compiles into
// a BitmapProgram over each surviving partition's attribute-presence
// matrix, the kernel yields the candidate records 64 per word op, and
// only candidates are decoded. The matrix rows are the entities' exact
// attribute sets, so a Select candidate is a hit by construction and a
// SelectWhere candidate only needs its value predicates tested. ScanAll
// runs the empty conjunction, which yields every live record.

// scanScratch is one partition scan's pooled working set: the kernel's
// buffers (resolved attribute rows, candidate bitset, candidate list)
// plus the hit buffer. Pooling them makes the steady-state scan loop
// allocation-free (see TestBitmapScanSteadyStateZeroAlloc).
type scanScratch struct {
	bm   storage.BitmapScratch
	hits []Result
}

var scanScratchPool = sync.Pool{New: func() any { return new(scanScratch) }}

// releaseScanScratches returns every partition's scratch to the pool.
// Callers must be done with the hit slices (mergeScans has copied them
// out). Hit entries are cleared so pooled buffers do not pin decoded
// entities.
func releaseScanScratches(parts []partScan) {
	for i := range parts {
		sc := parts[i].scratch
		if sc == nil {
			continue
		}
		parts[i].scratch = nil
		parts[i].hits = nil
		clear(sc.hits)
		sc.hits = sc.hits[:0]
		scanScratchPool.Put(sc)
	}
}

// selectProgram compiles an attribute-set query (Select's union shape)
// for the kernel.
func selectProgram(q *synopsis.Set) storage.BitmapProgram {
	return storage.BitmapProgram{Attrs: q.Elements(nil), Disjunction: true}
}

// whereProgram compiles a predicate conjunction's required-attribute
// set for the kernel.
func whereProgram(need *synopsis.Set) storage.BitmapProgram {
	return storage.BitmapProgram{Attrs: need.Elements(nil)}
}

// scanPart scans one partition snapshot: the kernel evaluates prog, and
// every candidate is decoded and kept when it satisfies preds (nil keeps
// every candidate — Select and ScanAll, whose programs are exact).
func scanPart(ps *partSnap, prog storage.BitmapProgram, preds []Pred) partScan {
	scratch := scanScratchPool.Get().(*scanScratch)
	v := ps.reader()
	cands, words := v.ScanBitmap(prog, &scratch.bm)
	sc := partScan{pid: ps.pid, scratch: scratch, bitmapWords: words}
	sc.hits = scratch.hits[:0]
	var bytesDec int64
	for i := range cands {
		n := int64(cands[i].N)
		eid, e, err := decodeRecord(v.Record(cands[i].ID))
		if err != nil {
			panic("table: corrupt record during scan: " + err.Error())
		}
		bytesDec += n
		if preds == nil || entityMatches(e, preds) {
			sc.hits = append(sc.hits, Result{ID: eid, Entity: e})
			sc.bytesHit += n
		}
	}
	scratch.hits = sc.hits
	// The kernel charged every live record's visit in bulk: candidates
	// were decoded, the rest were skipped without decoding.
	sc.scanned = v.NumRecords()
	sc.bytesRead = v.LiveBytes()
	sc.decoded = len(cands)
	sc.skipped = sc.scanned - sc.decoded
	sc.bytesSkip = sc.bytesRead - bytesDec
	return sc
}
