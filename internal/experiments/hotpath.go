package experiments

import (
	"io"
	"runtime"
	"time"

	"cinderella/internal/obs"
	"cinderella/internal/synopsis"
	"cinderella/internal/table"
	"cinderella/internal/workload"
)

// Hotpath measures the three optimized hot paths end to end — the fused
// rating kernel, the allocation-free insert path, and the parallel
// partition scan — and reports a machine-readable baseline that
// cmd/cinderella-bench serializes into BENCH_hotpath.json so later PRs
// can track the trajectory.

// HotpathResult is the hot-path baseline. All times are wall-clock on the
// benchmarking machine; GOMAXPROCS records how much parallelism the
// select comparison had available (on a single-core box the parallel scan
// degenerates to serial by design).
type HotpathResult struct {
	GOMAXPROCS int `json:"gomaxprocs"`
	NumCPU     int `json:"num_cpu"`
	Entities   int `json:"entities"`

	// Rating kernel: ns per entity/partition rating, fused single-pass
	// RateCards versus the four-call AndCard/OrCard/AndNotCard×2 baseline.
	FusedNsPerRating    float64 `json:"fused_ns_per_rating"`
	FourCallNsPerRating float64 `json:"fourcall_ns_per_rating"`
	RatingSpeedup       float64 `json:"rating_speedup"`

	// Insert path: mean ns per Insert into a fresh table (full placement
	// incl. splits, rating every partition in the catalog).
	InsertScanNsPerOp float64 `json:"insert_scan_ns_per_op"`
	Partitions        int     `json:"partitions"`

	// Query scan: mean ms per representative query, serial (run under
	// GOMAXPROCS=1) vs. pooled parallel partition scans (identical results
	// by construction).
	Queries            int     `json:"queries"`
	SerialMsPerQuery   float64 `json:"serial_ms_per_query"`
	ParallelMsPerQuery float64 `json:"parallel_ms_per_query"`
	SelectSpeedup      float64 `json:"select_speedup"`
	ParallelismWorkers int     `json:"parallelism_workers"`

	// Obs is the telemetry snapshot of one instrumented replay of the
	// query workload (registry attached after load, so the insert timings
	// above stay comparable across PRs): query counters and the streaming
	// EFFICIENCY of the final partitioning.
	Obs *obs.Snapshot `json:"obs,omitempty"`
}

// Hotpath runs the hot-path benchmarks at o's scale.
func Hotpath(o Options) HotpathResult {
	o = o.withDefaults()
	res := HotpathResult{
		GOMAXPROCS:         runtime.GOMAXPROCS(0),
		NumCPU:             runtime.NumCPU(),
		Entities:           o.Entities,
		ParallelismWorkers: runtime.GOMAXPROCS(0),
	}

	ds := dataset(o)

	// --- insert path (also builds the table the other phases reuse) ---
	tblScan, dursScan := loadTable(ds, cind(0.5, 5000), true)
	res.InsertScanNsPerOp = meanNs(dursScan)
	res.Partitions = tblScan.NumPartitions()

	// --- rating kernel ---
	// Pairs shaped like the insert loop sees them: entity synopsis against
	// partition synopsis.
	parts := tblScan.Partitions()
	var pairs [][2]*synopsis.Set
	for i, e := range ds.Entities {
		if len(pairs) >= 512 {
			break
		}
		pairs = append(pairs, [2]*synopsis.Set{e.Synopsis(), parts[i%len(parts)].Synopsis})
	}
	res.FusedNsPerRating = timePerOp(pairs, func(e, p *synopsis.Set) int {
		and, or, missE, missP := synopsis.RateCards(e, p)
		return and + or + missE + missP
	})
	res.FourCallNsPerRating = timePerOp(pairs, func(e, p *synopsis.Set) int {
		return synopsis.AndCard(e, p) + synopsis.OrCard(e, p) +
			synopsis.AndNotCard(p, e) + synopsis.AndNotCard(e, p)
	})
	if res.FusedNsPerRating > 0 {
		res.RatingSpeedup = res.FourCallNsPerRating / res.FusedNsPerRating
	}

	// --- query scan, serial vs parallel on the same table ---
	queries := buildWorkload(ds, o)
	res.Queries = len(queries)
	// The scan pool is GOMAXPROCS wide, so one proc makes every scan inline.
	prev := runtime.GOMAXPROCS(1)
	res.SerialMsPerQuery = meanQueryMs(tblScan, queries)
	runtime.GOMAXPROCS(prev)
	res.ParallelMsPerQuery = meanQueryMs(tblScan, queries)
	if res.ParallelMsPerQuery > 0 {
		res.SelectSpeedup = res.SerialMsPerQuery / res.ParallelMsPerQuery
	}

	// One instrumented replay for the telemetry snapshot. The registry is
	// attached only now, after all timing comparisons are done.
	reg := o.Obs
	if reg == nil {
		reg = obs.New(obs.Options{})
	}
	tblScan.SetObserver(reg)
	for _, q := range queries {
		tblScan.SelectSynopsis(q.Attrs)
	}
	snap := reg.Snapshot()
	res.Obs = &snap
	return res
}

var hotpathSink int

// timePerOp measures ns per f(pair) over enough repetitions to smooth
// timer noise.
func timePerOp(pairs [][2]*synopsis.Set, f func(e, p *synopsis.Set) int) float64 {
	if len(pairs) == 0 {
		return 0
	}
	// Warm-up pass.
	for _, pr := range pairs {
		hotpathSink += f(pr[0], pr[1])
	}
	ops := 0
	start := time.Now()
	for time.Since(start) < 50*time.Millisecond {
		for _, pr := range pairs {
			hotpathSink += f(pr[0], pr[1])
		}
		ops += len(pairs)
	}
	return float64(time.Since(start).Nanoseconds()) / float64(ops)
}

// meanQueryMs runs every query once for warm-up, then reports the mean
// wall time of a measured pass.
func meanQueryMs(tbl *table.Table, queries []workload.Query) float64 {
	if len(queries) == 0 {
		return 0
	}
	for _, q := range queries {
		tbl.SelectSynopsis(q.Attrs)
	}
	start := time.Now()
	for _, q := range queries {
		tbl.SelectSynopsis(q.Attrs)
	}
	return float64(time.Since(start).Microseconds()) / 1000 / float64(len(queries))
}

func meanNs(durs []time.Duration) float64 {
	if len(durs) == 0 {
		return 0
	}
	var total time.Duration
	for _, d := range durs {
		total += d
	}
	return float64(total.Nanoseconds()) / float64(len(durs))
}

// Print renders the baseline like the other experiment reports.
func (r HotpathResult) Print(w io.Writer) {
	fprintf(w, "HOTPATH baseline (GOMAXPROCS=%d, %d CPUs, %d entities, %d partitions)\n",
		r.GOMAXPROCS, r.NumCPU, r.Entities, r.Partitions)
	fprintf(w, "  rating kernel:   fused %.1f ns/op vs four-call %.1f ns/op (%.2fx)\n",
		r.FusedNsPerRating, r.FourCallNsPerRating, r.RatingSpeedup)
	fprintf(w, "  insert path:     scan %.0f ns/op\n", r.InsertScanNsPerOp)
	fprintf(w, "  query scan:      serial %.3f ms/q vs parallel %.3f ms/q (%.2fx, %d workers, %d queries)\n",
		r.SerialMsPerQuery, r.ParallelMsPerQuery, r.SelectSpeedup, r.ParallelismWorkers, r.Queries)
	if r.Obs != nil {
		fprintf(w, "  telemetry:       efficiency=%.4f (bytes %.4f), %d partitions scanned, %d pruned\n",
			r.Obs.Efficiency, r.Obs.EfficiencyBytes,
			r.Obs.Counters["cinderella_partitions_scanned_total"],
			r.Obs.Counters["cinderella_partitions_pruned_total"])
	}
}
