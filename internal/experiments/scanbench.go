package experiments

import (
	"encoding/binary"
	"io"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"cinderella/internal/core"
	"cinderella/internal/entity"
	"cinderella/internal/obs"
	"cinderella/internal/synopsis"
	"cinderella/internal/table"
	"cinderella/internal/workload"
)

// ScanBench measures the word-parallel bitmap scan kernel — the table's
// only scan path — against a full-decode baseline kept here: the same
// partition pruning, then a decode of every live record in each
// surviving partition, filtered after decoding. It reports selective
// query throughput for both, a result/report equivalence sweep, and the
// cold-tier payoff — a frozen partition the kernel prunes completely
// charges zero cold bytes. cmd/cinderella-bench serializes the result
// into BENCH_scan.json.
//
// The timed replay runs on the coarse-partitioning arm of the paper's
// Fig. 5 sweep (B = 50000): with few, wide partitions, partition-level
// synopses prune almost nothing and nearly every visited record is
// irrelevant — the regime where record-level skipping carries the scan.
// The fine-grained clustered table (the B = 5000 standard arm) is also
// measured and reported as a secondary ratio.

// scanBenchSelectiveCut bounds the measured selectivity of the queries
// in the timed replay: the kernel's job is the selective regime, where
// most visited records are irrelevant and decode-skipping dominates.
const scanBenchSelectiveCut = 0.25

// scanBenchBudget is the required selective speedup of the kernel over
// the full-decode baseline: 0.85 of the kernel-vs-locked-full-decode
// ratio measured before the locked read mode was removed (median 30.7x
// over five 100k-entity runs on a 2-vCPU VM, the BENCH_scan.json
// scale), never below the earlier 3x floor against the per-record
// synopsis path.
const scanBenchBudget = 26.1

// scanBenchRounds is the number of alternating full-decode/kernel phase
// pairs per arm. Throughputs are the medians over the rounds and the
// speedup is the median of the per-round ratios, so drift of a shared
// machine between the two phases of a pair cancels out.
const scanBenchRounds = 7

// scanBenchCoarseB is the partition-size bound for the timed replay's
// table: Fig. 5's largest arm, where partition pruning is weakest and
// record-level skipping carries the scan.
const scanBenchCoarseB = 50000

// scanBenchClusteredB is the standard clustered configuration used by
// the equivalence sweep, the cold-tier probe, and the secondary ratio.
const scanBenchClusteredB = 5000

// ScanBenchResult is the scan-kernel baseline.
type ScanBenchResult struct {
	BuildMeta
	GOMAXPROCS int `json:"gomaxprocs"`
	NumCPU     int `json:"num_cpu"`
	Entities   int `json:"entities"`

	// The timed replay: selective representative queries, Rounds
	// alternating phase pairs (full decode, then kernel) over the same
	// hot coarse-partitioned table.
	Queries          int     `json:"queries"`
	SelectiveQueries int     `json:"selective_queries"`
	SelectivityCut   float64 `json:"selectivity_cut"`
	PhaseMs          int     `json:"phase_ms"`
	Rounds           int     `json:"rounds"`
	PartitionMaxSize int     `json:"partition_max_size"` // the replay table's B (Fig. 5 coarse arm)

	FullDecodeQPS    float64 `json:"full_decode_queries_per_sec"`
	BitmapQPS        float64 `json:"bitmap_queries_per_sec"`
	FullDecodeUsPerQ float64 `json:"full_decode_us_per_query"`
	BitmapUsPerQ     float64 `json:"bitmap_us_per_query"`
	Speedup          float64 `json:"speedup"`
	WithinBudget     bool    `json:"within_budget"` // Speedup >= SpeedupBudget
	SpeedupBudget    float64 `json:"speedup_budget"`
	BitmapWords      int64   `json:"bitmap_words"` // kernel word ops in the bitmap phase
	BitmapHits       int64   `json:"bitmap_hits"`  // kernel candidates in the bitmap phase
	BitmapWordsPerQ  float64 `json:"bitmap_words_per_query"`
	RecordsPerWordOp float64 `json:"records_per_word_op"` // records ruled on per 64-bit op

	// The secondary ratio on the standard clustered table, where
	// partition pruning already concentrates relevant records.
	ClusteredPartitionMaxSize int     `json:"clustered_partition_max_size"`
	ClusteredFullDecodeQPS    float64 `json:"clustered_full_decode_queries_per_sec"`
	ClusteredBitmapQPS        float64 `json:"clustered_bitmap_queries_per_sec"`
	ClusteredSpeedup          float64 `json:"clustered_speedup"`

	// The equivalence sweep: every representative query plus predicate
	// probes, kernel vs. full decode, on both tables, hot and frozen —
	// results and QueryReport must be identical.
	EquivalenceQueries int  `json:"equivalence_queries"`
	EquivalenceOK      bool `json:"equivalence_ok"`

	// The cold-tier prune check: with every partition frozen, a
	// conjunctive query over a never-co-occurring attribute pair touches
	// partitions (their synopses contain both attributes) but decodes
	// nothing — so no cold block may be inflated.
	FrozenPartitions     int   `json:"frozen_partitions"`
	PruneProbePartitions int   `json:"prune_probe_partitions_touched"`
	PruneProbeColdBytes  int64 `json:"prune_probe_cold_bytes"`
	PruneZeroColdOK      bool  `json:"prune_zero_cold_ok"`
}

// fullDecode is the baseline scan: each partition's records, encoded
// exactly as the table stores them (uvarint id + entity), in one slab
// per partition. A query prunes partitions by synopsis like the table
// does, then decodes every record of every surviving partition and
// filters after decoding — no record-level skipping. Surviving
// partitions are decoded on GOMAXPROCS workers, like the table's
// parallel partition scans (and the locked read mode this replaces).
type fullDecode struct {
	parts []decodePart
}

type decodePart struct {
	syn  *synopsis.Set
	slab []byte
	ends []int // record i is slab[ends[i-1]:ends[i]]
}

// newFullDecode copies tbl's current partitions into the baseline.
func newFullDecode(tbl *table.Table) *fullDecode {
	fd := &fullDecode{}
	for _, pv := range tbl.Partitions() {
		dp := decodePart{syn: pv.Synopsis}
		for _, id := range tbl.PartitionMembers(pv.ID) {
			e, ok := tbl.Get(id)
			if !ok {
				continue
			}
			dp.slab = binary.AppendUvarint(dp.slab, uint64(id))
			dp.slab = e.Marshal(dp.slab)
			dp.ends = append(dp.ends, len(dp.slab))
		}
		fd.parts = append(fd.parts, dp)
	}
	return fd
}

// decode decodes every record of the partition, keeping the matches;
// the report carries the partition's visit counters.
func (dp *decodePart) decode(match func(*entity.Entity) bool) (hits []table.Result, rep table.QueryReport) {
	start := 0
	for _, end := range dp.ends {
		rec := dp.slab[start:end]
		start = end
		id, n := binary.Uvarint(rec)
		e, _, err := entity.Unmarshal(rec[n:])
		if err != nil {
			panic("experiments: corrupt baseline record: " + err.Error())
		}
		rep.EntitiesScanned++
		rep.BytesRead += int64(len(rec))
		if match(e) {
			hits = append(hits, table.Result{ID: core.EntityID(id), Entity: e})
			rep.EntitiesReturned++
			rep.BytesRelevant += int64(len(rec))
		}
	}
	return hits, rep
}

// scan runs one query: survive decides partition pruning, match filters
// decoded entities.
func (fd *fullDecode) scan(survive func(*synopsis.Set) bool, match func(*entity.Entity) bool) ([]table.Result, table.QueryReport) {
	rep := table.QueryReport{PartitionsTotal: len(fd.parts)}
	var surv []*decodePart
	for i := range fd.parts {
		if survive(fd.parts[i].syn) {
			surv = append(surv, &fd.parts[i])
		}
	}
	rep.PartitionsTouched = len(surv)
	rep.PartitionsPruned = rep.PartitionsTotal - rep.PartitionsTouched

	hits := make([][]table.Result, len(surv))
	reps := make([]table.QueryReport, len(surv))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := min(runtime.GOMAXPROCS(0), len(surv)); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(surv); i = int(next.Add(1)) - 1 {
				hits[i], reps[i] = surv[i].decode(match)
			}
		}()
	}
	wg.Wait()

	var out []table.Result
	for i := range surv {
		out = append(out, hits[i]...)
		rep.EntitiesScanned += reps[i].EntitiesScanned
		rep.EntitiesReturned += reps[i].EntitiesReturned
		rep.BytesRead += reps[i].BytesRead
		rep.BytesRelevant += reps[i].BytesRelevant
	}
	return out, rep
}

// selectQ is Select's shape: entities with any of q's attributes.
func (fd *fullDecode) selectQ(q *synopsis.Set) ([]table.Result, table.QueryReport) {
	hasAny := func(s *synopsis.Set) bool { return synopsis.Intersects(s, q) }
	return fd.scan(hasAny, func(e *entity.Entity) bool { return hasAny(e.Synopsis()) })
}

// where is SelectWhere's shape for the anyPred probes, which every
// entity instantiating the attribute satisfies: entities with all of
// the predicate attributes.
func (fd *fullDecode) where(preds []table.Pred) ([]table.Result, table.QueryReport) {
	need := synopsis.New(0)
	for _, p := range preds {
		need.Add(p.Attr)
	}
	hasAll := func(s *synopsis.Set) bool { return synopsis.Subset(need, s) }
	return fd.scan(hasAll, func(e *entity.Entity) bool { return hasAll(e.Synopsis()) })
}

// anyPred builds a predicate that every entity instantiating attr
// satisfies. The generated data's value kind is deterministic per
// attribute (attr % 3), so a matching-kind >= minimum probe matches
// exactly "attr present".
func anyPred(attr int) table.Pred {
	if attr%3 == 0 {
		return table.Pred{Attr: attr, Op: table.Ge, Value: entity.Str("")}
	}
	return table.Pred{Attr: attr, Op: table.Ge, Value: entity.Float(-1)}
}

// sameScanResults compares two result sets by id and contents. The
// baseline visits a partition's records in insertion order, the table in
// storage order, so both are sorted by id first.
func sameScanResults(a, b []table.Result) bool {
	if len(a) != len(b) {
		return false
	}
	byID := func(r []table.Result) {
		sort.Slice(r, func(i, j int) bool { return r[i].ID < r[j].ID })
	}
	byID(a)
	byID(b)
	for i := range a {
		if a[i].ID != b[i].ID || !a[i].Entity.Equal(b[i].Entity) {
			return false
		}
	}
	return true
}

// ScanBench runs the scan-kernel benchmark at o's scale.
func ScanBench(o Options) ScanBenchResult {
	o = o.withDefaults()
	const phase = 1200 * time.Millisecond
	res := ScanBenchResult{
		BuildMeta:                 buildMeta(),
		GOMAXPROCS:                runtime.GOMAXPROCS(0),
		NumCPU:                    runtime.NumCPU(),
		Entities:                  o.Entities,
		SelectivityCut:            scanBenchSelectiveCut,
		SpeedupBudget:             scanBenchBudget,
		PhaseMs:                   int(phase.Milliseconds()),
		Rounds:                    scanBenchRounds,
		PartitionMaxSize:          scanBenchCoarseB,
		ClusteredPartitionMaxSize: scanBenchClusteredB,
	}
	ds := dataset(o)
	tbl, _ := loadTable(ds, cind(0.5, scanBenchClusteredB), false)
	coarse, _ := loadTable(ds, cind(0.5, scanBenchCoarseB), false)
	tblBase, coarseBase := newFullDecode(tbl), newFullDecode(coarse)
	reg := o.Obs
	if reg == nil {
		reg = obs.New(obs.Options{})
	}
	tbl.SetObserver(reg)
	coarse.SetObserver(reg)

	queries := buildWorkload(ds, o)
	res.Queries = len(queries)
	var selective []workload.Query
	for _, q := range queries {
		if q.Selectivity <= scanBenchSelectiveCut {
			selective = append(selective, q)
		}
	}
	if len(selective) == 0 {
		selective = queries // tiny smoke scales may have no selective bucket
	}
	res.SelectiveQueries = len(selective)

	// Phase 1 — equivalence sweep over both hot tables: every
	// representative query, kernel vs. full decode, results and reports
	// identical.
	res.EquivalenceOK = true
	checkEquiv := func(kernel, base func() ([]table.Result, table.QueryReport)) {
		kr, krep := kernel()
		br, brep := base()
		res.EquivalenceQueries++
		if !sameScanResults(kr, br) || krep != brep {
			res.EquivalenceOK = false
		}
	}
	for _, q := range queries {
		q := q
		checkEquiv(func() ([]table.Result, table.QueryReport) { return tbl.SelectWithReport(q.Attrs) },
			func() ([]table.Result, table.QueryReport) { return tblBase.selectQ(q.Attrs) })
		checkEquiv(func() ([]table.Result, table.QueryReport) { return coarse.SelectWithReport(q.Attrs) },
			func() ([]table.Result, table.QueryReport) { return coarseBase.selectQ(q.Attrs) })
		attrs := q.Attrs.Elements(nil)
		if len(attrs) > 0 {
			preds := []table.Pred{anyPred(attrs[0])}
			if len(attrs) > 1 {
				preds = append(preds, anyPred(attrs[1]))
			}
			checkEquiv(func() ([]table.Result, table.QueryReport) { return tbl.SelectWhere(preds) },
				func() ([]table.Result, table.QueryReport) { return tblBase.where(preds) })
		}
	}

	// Phase 2 — the timed selective replay: scanBenchRounds pairs of
	// time-boxed phases, full decode first in each pair so the kernel
	// phase cannot inherit a warmer allocator. One warm-up pass per
	// phase. The headline ratio runs on the coarse table; the clustered
	// table's ratio is the secondary number.
	//
	// Scheduling is an equal time slice per query (the rate-metric
	// aggregation): each representative query gets d/len(selective) of
	// wall time and throughput is total completions over total time.
	// A single shared loop would instead let the bucket's heaviest
	// queries — whose cost is dominated by materializing their large
	// result sets, identical for both scans — consume nearly all the
	// phase and mask the scan-path difference this benchmark isolates.
	replayFor := func(run func(q *synopsis.Set), d time.Duration) (qps float64, ran int) {
		for _, q := range selective {
			run(q.Attrs)
		}
		slice := d / time.Duration(len(selective))
		var total time.Duration
		for _, q := range selective {
			start := time.Now()
			for time.Since(start) < slice {
				run(q.Attrs)
				ran++
			}
			total += time.Since(start)
		}
		return float64(ran) / total.Seconds(), ran
	}
	kernelRun := func(t *table.Table) func(*synopsis.Set) {
		return func(q *synopsis.Set) { t.SelectSynopsis(q) }
	}
	baseRun := func(fd *fullDecode) func(*synopsis.Set) {
		return func(q *synopsis.Set) { fd.selectQ(q) }
	}
	rounds := func(base, kernel func(*synopsis.Set), d time.Duration) (baseQPS, kernelQPS, speedup float64, kernelRan int) {
		var bq, kq, ratio []float64
		for r := 0; r < scanBenchRounds; r++ {
			b, _ := replayFor(base, d)
			k, n := replayFor(kernel, d)
			kernelRan += n
			bq, kq, ratio = append(bq, b), append(kq, k), append(ratio, k/b)
		}
		return median(bq), median(kq), median(ratio), kernelRan
	}
	w0, h0 := reg.Counter(obs.CScanBitmapWords), reg.Counter(obs.CScanBitmapHits)
	d0 := reg.Counter(obs.CScanDecoded)
	s0 := reg.Counter(obs.CScanDecodeSkipped)
	var bitmapRan int
	res.FullDecodeQPS, res.BitmapQPS, res.Speedup, bitmapRan = rounds(baseRun(coarseBase), kernelRun(coarse), phase)
	res.BitmapWords = reg.Counter(obs.CScanBitmapWords) - w0
	res.BitmapHits = reg.Counter(obs.CScanBitmapHits) - h0
	ruled := reg.Counter(obs.CScanDecoded) - d0 + reg.Counter(obs.CScanDecodeSkipped) - s0
	if res.FullDecodeQPS > 0 {
		res.FullDecodeUsPerQ = 1e6 / res.FullDecodeQPS
	}
	if res.BitmapQPS > 0 {
		res.BitmapUsPerQ = 1e6 / res.BitmapQPS
	}
	if bitmapRan > 0 {
		res.BitmapWordsPerQ = float64(res.BitmapWords) / float64(bitmapRan)
	}
	if res.BitmapWords > 0 {
		res.RecordsPerWordOp = float64(ruled) / float64(res.BitmapWords)
	}
	res.WithinBudget = res.Speedup >= scanBenchBudget

	res.ClusteredFullDecodeQPS, res.ClusteredBitmapQPS, res.ClusteredSpeedup, _ =
		rounds(baseRun(tblBase), kernelRun(tbl), phase/2)

	// Phase 3 — freeze every clustered partition and probe the cold-tier
	// prune path: a conjunction over two attributes that never co-occur
	// in one entity touches every partition whose synopsis holds both,
	// yet the kernel decodes nothing, so zero cold bytes may be
	// inflated. The frozen equivalence sweep reruns a slice of the
	// workload across both tiers.
	for _, pv := range tbl.Partitions() {
		tbl.FreezePartition(pv.ID)
	}
	res.FrozenPartitions = len(tbl.FrozenPartitions())

	if a, b, ok := disjointCoverPair(entSynopses(ds), tbl); ok {
		preds := []table.Pred{anyPred(a), anyPred(b)}
		tbl.Stats().Reset()
		hits, rep := tbl.SelectWhere(preds)
		_, cold := tbl.Stats().ColdSnapshot()
		res.PruneProbePartitions = rep.PartitionsTouched
		res.PruneProbeColdBytes = cold
		res.PruneZeroColdOK = len(hits) == 0 && rep.PartitionsTouched > 0 && cold == 0
	}

	for i, q := range queries {
		if i%4 != 0 {
			continue
		}
		q := q
		checkEquiv(func() ([]table.Result, table.QueryReport) { return tbl.SelectWithReport(q.Attrs) },
			func() ([]table.Result, table.QueryReport) { return tblBase.selectQ(q.Attrs) })
	}
	return res
}

// median returns the median of xs (which it sorts in place).
func median(xs []float64) float64 {
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// disjointCoverPair finds an attribute pair (a, b) that never co-occurs
// in a single entity but does co-occur in at least one partition's
// attribute synopsis — the shape where record-level pruning matters and
// partition-level pruning cannot help.
func disjointCoverPair(syns []*synopsis.Set, tbl *table.Table) (int, int, bool) {
	co := make(map[[2]int]struct{})
	var scratch []int
	for _, s := range syns {
		scratch = s.Elements(scratch[:0])
		for i := 0; i < len(scratch); i++ {
			for j := i + 1; j < len(scratch); j++ {
				co[[2]int{scratch[i], scratch[j]}] = struct{}{}
			}
		}
	}
	for _, pv := range tbl.Partitions() {
		attrs := pv.Synopsis.Elements(nil)
		// Bound the pair search per partition; wide synopses would make
		// it quadratic in the hundreds otherwise.
		if len(attrs) > 48 {
			attrs = attrs[:48]
		}
		for i := 0; i < len(attrs); i++ {
			for j := i + 1; j < len(attrs); j++ {
				if _, seen := co[[2]int{attrs[i], attrs[j]}]; !seen {
					return attrs[i], attrs[j], true
				}
			}
		}
	}
	return 0, 0, false
}

// Print renders the baseline like the other experiment reports.
func (r ScanBenchResult) Print(w io.Writer) {
	fprintf(w, "SCAN kernel (GOMAXPROCS=%d, %d CPUs, %s, %d entities, %d selective of %d queries, sel<=%.2f)\n",
		r.GOMAXPROCS, r.NumCPU, r.GoVersion, r.Entities, r.SelectiveQueries, r.Queries, r.SelectivityCut)
	fprintf(w, "  coarse arm (B=%d, medians of %d rounds):\n", r.PartitionMaxSize, r.Rounds)
	fprintf(w, "    full-decode baseline: %.0f q/s (%.1f us/query)\n", r.FullDecodeQPS, r.FullDecodeUsPerQ)
	fprintf(w, "    bitmap kernel:        %.0f q/s (%.1f us/query)\n", r.BitmapQPS, r.BitmapUsPerQ)
	fprintf(w, "    speedup: %.2fx (budget %.1fx, within=%v)\n", r.Speedup, r.SpeedupBudget, r.WithinBudget)
	fprintf(w, "    kernel: %d word ops, %d candidates (%.1f records ruled per word op)\n",
		r.BitmapWords, r.BitmapHits, r.RecordsPerWordOp)
	fprintf(w, "  clustered arm (B=%d): %.0f -> %.0f q/s (%.2fx)\n",
		r.ClusteredPartitionMaxSize, r.ClusteredFullDecodeQPS, r.ClusteredBitmapQPS, r.ClusteredSpeedup)
	fprintf(w, "  equivalence: %d queries kernel==full decode: %v\n", r.EquivalenceQueries, r.EquivalenceOK)
	fprintf(w, "  cold prune: %d frozen partitions, probe touched %d, cold bytes %d (zero-cold ok=%v)\n",
		r.FrozenPartitions, r.PruneProbePartitions, r.PruneProbeColdBytes, r.PruneZeroColdOK)
}
