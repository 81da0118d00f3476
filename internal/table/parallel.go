package table

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"cinderella/internal/core"
)

// Parallel partition scans.
//
// Queries that survive pruning scan each remaining partition
// independently: partitions are disjoint, and each scan runs against an
// immutable snapshot, so the scans are embarrassingly parallel.
// runScans fans the per-partition work out over a bounded worker pool.
// Determinism is preserved by construction — worker i-th unit writes only
// slot i of a pre-sized result array, and the caller concatenates slots in
// ascending partition-id order, so the result bytes and every QueryReport
// counter are identical to a serial scan regardless of scheduling.

// runScans executes scan(i) for every i in [0, n), using up to
// GOMAXPROCS workers; with one worker it scans inline. scan must write
// only state owned by its index.
func runScans(n int, scan func(i int)) {
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			scan(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				scan(i)
			}
		}()
	}
	wg.Wait()
}

// runTimedScans fills parts[i] = scan(i) through the worker pool,
// additionally stamping each slot's scan wall time when timed (sampled
// spans record per-partition timing; everyone else skips the clock
// reads).
func runTimedScans(parts []partScan, timed bool, scan func(i int) partScan) {
	runScans(len(parts), func(i int) {
		if !timed {
			parts[i] = scan(i)
			return
		}
		st := time.Now()
		parts[i] = scan(i)
		parts[i].ns = time.Since(st).Nanoseconds()
	})
}

// partScan is one partition's private scan buffer: hits in storage order
// plus the records-visited and byte-volume counters. decoded and skipped
// split the visited records by whether the kernel let the scan avoid the
// decode; they feed the telemetry decode counters, the heat map, and
// query spans only — never QueryReport.
type partScan struct {
	pid       core.PartitionID
	hits      []Result
	scanned   int
	decoded   int   // records actually decoded
	skipped   int   // records the kernel ruled out without decoding
	bytesRead int64 // live record bytes visited
	bytesHit  int64 // live record bytes of hits (relevant to the query)
	bytesSkip int64 // live record bytes of skipped records
	ns        int64 // scan wall time; recorded only for sampled spans

	// bitmapWords is the kernel's word-op count (see bitmap.go). scratch
	// is the pooled buffer set backing hits; the query path releases it
	// after the hits have been merged and the span published.
	bitmapWords int64
	scratch     *scanScratch
}

// mergeScans concatenates per-partition buffers in slot (= partition-id)
// order and folds their counters into rep.
func mergeScans(parts []partScan, rep *QueryReport) []Result {
	var out []Result
	total := 0
	for i := range parts {
		total += len(parts[i].hits)
	}
	if total > 0 {
		out = make([]Result, 0, total)
	}
	for i := range parts {
		rep.EntitiesScanned += parts[i].scanned
		rep.EntitiesReturned += len(parts[i].hits)
		rep.BytesRead += parts[i].bytesRead
		rep.BytesRelevant += parts[i].bytesHit
		out = append(out, parts[i].hits...)
	}
	return out
}
