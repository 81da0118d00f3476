package experiments

import (
	"io"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"cinderella/internal/core"
	"cinderella/internal/datagen"
	"cinderella/internal/obs"
	"cinderella/internal/table"
	"cinderella/internal/workload"
)

// readBenchSelectiveCut is the measured-selectivity bound below which a
// workload query counts as "selective" for the decode-avoidance report.
const readBenchSelectiveCut = 0.25

// readBenchP99Budget bounds writer p99 under the 8-reader full-scan load
// as a multiple of solo writer p99 (the read-path gate).
const readBenchP99Budget = 2.0

// ReadBench measures the lock-free snapshot read path end to end: writer
// tail latency under a continuous full-scan read load against the
// writers-alone baseline, and the fraction of record decodes the bitmap
// kernel avoids on the representative query workload.
// cmd/cinderella-bench serializes the result into BENCH_read.json so
// later PRs can track the trajectory.

// ReadBenchResult is the read-path baseline. Latencies are wall-clock
// microseconds on the benchmarking machine; the headline number is
// WriterP99Ratio — writer p99 under 8 ScanAll readers over solo writer
// p99 — gated at readBenchP99Budget.
type ReadBenchResult struct {
	BuildMeta
	GOMAXPROCS int `json:"gomaxprocs"`
	NumCPU     int `json:"num_cpu"`
	Entities   int `json:"entities"`
	Writers    int `json:"writers"`
	Readers    int `json:"readers"`
	PhaseMs    int `json:"phase_ms"`

	// Writers only, snapshot mode: the uncontended mutation baseline.
	SoloP50Us float64 `json:"solo_writer_p50_us"`
	SoloP99Us float64 `json:"solo_writer_p99_us"`

	// Writers vs. concurrent ScanAll readers, snapshot mode.
	SnapP50Us       float64 `json:"snapshot_writer_p50_us"`
	SnapP99Us       float64 `json:"snapshot_writer_p99_us"`
	SnapWriteOpsSec float64 `json:"snapshot_write_ops_per_sec"`
	SnapScansSec    float64 `json:"snapshot_scans_per_sec"`

	// SnapP99Us / SoloP99Us: how much the full-scan readers stretch the
	// writer tail. Readers never take the table lock, so the ratio stays
	// within WriterP99Budget.
	WriterP99Ratio        float64 `json:"writer_p99_ratio"`
	WriterP99Budget       float64 `json:"writer_p99_budget"`
	WriterP99WithinBudget bool    `json:"writer_p99_within_budget"`

	// Kernel pruning over the representative query workload: of the live
	// records in partitions that survived partition-level pruning, the
	// fraction whose decode the presence matrix skipped.
	// The selective_* fields cover only queries with measured selectivity
	// ≤ readBenchSelectiveCut — the queries where per-record pruning is
	// the point — and selective_decode_avoided_fraction is the headline.
	Queries                 int     `json:"queries"`
	RecordsDecoded          int64   `json:"records_decoded"`
	DecodesSkipped          int64   `json:"decodes_skipped"`
	DecodeAvoidedFraction   float64 `json:"decode_avoided_fraction"`
	SelectiveQueries        int     `json:"selective_queries"`
	SelectiveDecoded        int64   `json:"selective_records_decoded"`
	SelectiveSkipped        int64   `json:"selective_decodes_skipped"`
	SelectiveDecodeAvoided  float64 `json:"selective_decode_avoided_fraction"`
	SelectiveSelectivityCut float64 `json:"selective_selectivity_cut"`

	// Obs is the telemetry snapshot of the instrumented query replay.
	Obs *obs.Snapshot `json:"obs,omitempty"`
}

// mixResult is one read/write phase: merged writer latencies plus
// throughput on both sides.
type mixResult struct {
	p50, p99    time.Duration
	writeOpsSec float64
	scansSec    float64
}

// readMix races writer goroutines (insert/update/delete against the
// shared table) with reader goroutines (full ScanAll loops) for d and
// reports writer latency percentiles. readers == 0 gives the
// uncontended writer baseline.
func readMix(tbl *table.Table, ds *datagen.Dataset, writers, readers int, d time.Duration) mixResult {
	stop := make(chan struct{})
	lats := make([][]time.Duration, writers)
	var scans atomic.Int64

	var wwg, rwg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wwg.Add(1)
		go func(w int) {
			defer wwg.Done()
			rng := rand.New(rand.NewSource(int64(1000 + w)))
			var mine []core.EntityID
			recorded := make([]time.Duration, 0, 4096)
			for {
				select {
				case <-stop:
					lats[w] = recorded
					return
				default:
				}
				op := rng.Intn(10)
				start := time.Now()
				switch {
				case op < 2 && len(mine) > 0: // delete
					k := rng.Intn(len(mine))
					tbl.Delete(mine[k])
					mine = append(mine[:k], mine[k+1:]...)
				case op < 4 && len(mine) > 0: // update
					tbl.Update(mine[rng.Intn(len(mine))], ds.Entities[rng.Intn(len(ds.Entities))].Clone())
				default: // insert
					mine = append(mine, tbl.Insert(ds.Entities[rng.Intn(len(ds.Entities))].Clone()))
				}
				recorded = append(recorded, time.Since(start))
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		rwg.Add(1)
		go func() {
			defer rwg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				res := tbl.ScanAll()
				_ = res
				scans.Add(1)
			}
		}()
	}

	time.Sleep(d)
	close(stop)
	wwg.Wait()
	rwg.Wait()

	var all []time.Duration
	for _, l := range lats {
		all = append(all, l...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	pct := func(q float64) time.Duration {
		if len(all) == 0 {
			return 0
		}
		return all[int(q*float64(len(all)-1))]
	}
	return mixResult{
		p50:         pct(0.50),
		p99:         pct(0.99),
		writeOpsSec: float64(len(all)) / d.Seconds(),
		scansSec:    float64(scans.Load()) / d.Seconds(),
	}
}

// ReadBench runs the read-path benchmarks at o's scale.
func ReadBench(o Options) ReadBenchResult {
	o = o.withDefaults()
	const (
		writers = 8
		readers = 8
		phase   = 1200 * time.Millisecond
	)
	res := ReadBenchResult{
		BuildMeta:  buildMeta(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Entities:   o.Entities,
		Writers:    writers,
		Readers:    readers,
		PhaseMs:    int(phase.Milliseconds()),
	}

	ds := dataset(o)
	tbl, _ := loadTable(ds, cind(0.5, 5000), false)

	// Phase 1 — writers alone: the uncontended baseline.
	solo := readMix(tbl, ds, writers, 0, phase)
	res.SoloP50Us = float64(solo.p50.Nanoseconds()) / 1e3
	res.SoloP99Us = float64(solo.p99.Nanoseconds()) / 1e3

	// Phase 2 — writers vs. full-scan readers on the lock-free path.
	snap := readMix(tbl, ds, writers, readers, phase)
	res.SnapP50Us = float64(snap.p50.Nanoseconds()) / 1e3
	res.SnapP99Us = float64(snap.p99.Nanoseconds()) / 1e3
	res.SnapWriteOpsSec = snap.writeOpsSec
	res.SnapScansSec = snap.scansSec

	res.WriterP99Budget = readBenchP99Budget
	if res.SoloP99Us > 0 {
		res.WriterP99Ratio = res.SnapP99Us / res.SoloP99Us
	}
	res.WriterP99WithinBudget = res.SoloP99Us > 0 && res.WriterP99Ratio <= readBenchP99Budget

	// Phase 3 — kernel decode avoidance over the representative query
	// workload, instrumented. Selective queries (the low-selectivity
	// buckets, where most records in a scanned partition are irrelevant)
	// are replayed as their own group so their skip fraction is visible
	// next to the whole-workload number.
	queries := buildWorkload(ds, o)
	res.Queries = len(queries)
	res.SelectiveSelectivityCut = readBenchSelectiveCut
	var selective, broad []workload.Query
	for _, q := range queries {
		if q.Selectivity <= readBenchSelectiveCut {
			selective = append(selective, q)
		} else {
			broad = append(broad, q)
		}
	}
	res.SelectiveQueries = len(selective)

	reg := o.Obs
	if reg == nil {
		reg = obs.New(obs.Options{})
	}
	tbl.SetObserver(reg)
	replay := func(qs []workload.Query) (decoded, skipped int64) {
		d0, s0 := reg.Counter(obs.CScanDecoded), reg.Counter(obs.CScanDecodeSkipped)
		for _, q := range qs {
			tbl.SelectSynopsis(q.Attrs)
		}
		return reg.Counter(obs.CScanDecoded) - d0, reg.Counter(obs.CScanDecodeSkipped) - s0
	}
	res.SelectiveDecoded, res.SelectiveSkipped = replay(selective)
	bd, bs := replay(broad)
	res.RecordsDecoded = res.SelectiveDecoded + bd
	res.DecodesSkipped = res.SelectiveSkipped + bs
	if total := res.RecordsDecoded + res.DecodesSkipped; total > 0 {
		res.DecodeAvoidedFraction = float64(res.DecodesSkipped) / float64(total)
	}
	if total := res.SelectiveDecoded + res.SelectiveSkipped; total > 0 {
		res.SelectiveDecodeAvoided = float64(res.SelectiveSkipped) / float64(total)
	}
	snapObs := reg.Snapshot()
	res.Obs = &snapObs
	return res
}

// Print renders the baseline like the other experiment reports.
func (r ReadBenchResult) Print(w io.Writer) {
	fprintf(w, "READ baseline (GOMAXPROCS=%d, %d CPUs, %s, %d entities, %dw/%dr, %dms phases)\n",
		r.GOMAXPROCS, r.NumCPU, r.GoVersion, r.Entities, r.Writers, r.Readers, r.PhaseMs)
	fprintf(w, "  writers alone:   p50 %.1f us, p99 %.1f us\n", r.SoloP50Us, r.SoloP99Us)
	fprintf(w, "  snapshot reads:  writer p50 %.1f us, p99 %.1f us (%.0f w-ops/s, %.1f scans/s)\n",
		r.SnapP50Us, r.SnapP99Us, r.SnapWriteOpsSec, r.SnapScansSec)
	fprintf(w, "  writer p99 under full scans: %.2fx solo (budget %.1fx, within=%v)\n",
		r.WriterP99Ratio, r.WriterP99Budget, r.WriterP99WithinBudget)
	fprintf(w, "  kernel:          %d decoded, %d skipped (%.1f%% of decodes avoided, %d queries)\n",
		r.RecordsDecoded, r.DecodesSkipped, 100*r.DecodeAvoidedFraction, r.Queries)
	fprintf(w, "  selective (sel<=%.2f): %d decoded, %d skipped (%.1f%% avoided, %d queries)\n",
		r.SelectiveSelectivityCut, r.SelectiveDecoded, r.SelectiveSkipped,
		100*r.SelectiveDecodeAvoided, r.SelectiveQueries)
}
