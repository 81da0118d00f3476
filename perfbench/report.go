package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"cinderella/internal/obs"
)

// metricDef names a reported metric. For per-layer metrics, moves names
// the end-to-end metric and workload the layer should move.
type metricDef struct {
	name, unit, better, moves string
}

// e2eDefs are BENCHMARK.json's end_to_end metrics; every workload
// reports all of them.
var e2eDefs = []metricDef{
	{name: "setup_s", unit: "s", better: "lower"},
	{name: "ops_per_s", unit: "1/s", better: "higher"},
	{name: "p50_us", unit: "us", better: "lower"},
	{name: "p99_us", unit: "us", better: "lower"},
	{name: "efficiency", unit: "ratio", better: "higher"},
	{name: "heap_bytes_per_record", unit: "B", better: "lower"},
	{name: "disk_bytes_per_user_byte", unit: "ratio", better: "lower"},
}

// layerDefs are BENCHMARK.json's per_layer metrics.
var layerDefs = []metricDef{
	{"wire.self_us", "us", "lower", "p50_us on query and mixed"},
	{"wire.ops_per_frame", "count", "higher", "ops_per_s on ingest"},
	{"wire.bytes_per_op", "B", "lower", "p50_us on query"},
	{"store.insert_us", "us", "lower", "ops_per_s on ingest; p50_us on mixed"},
	{"store.update_us", "us", "lower", "p50_us on mixed"},
	{"store.delete_us", "us", "lower", "p50_us on mixed"},
	{"store.query_us", "us", "lower", "p50_us on query"},
	{"store.checkpoint_ms", "ms", "lower", "p99_us on mixed"},
	{"store.checkpoint_stalled_writes", "count", "lower", "p99_us on mixed"},
	{"server.commit_wait_us", "us", "lower", "p50_us on mixed"},
	{"server.batch_ops", "count", "higher", "p50_us on mixed"},
	{"wal.sync_us", "us", "lower", "p50_us on mixed"},
	{"wal.syncs_per_write", "ratio", "lower", "p50_us on mixed"},
	{"wal.append_us", "us", "lower", "ops_per_s on ingest"},
	{"wal.bytes_per_write", "B", "lower", "disk_bytes_per_user_byte on every workload"},
	{"table.insert_us", "us", "lower", "ops_per_s on ingest"},
	{"table.query_us", "us", "lower", "p50_us on query"},
	{"table.pruned_frac", "ratio", "higher", "p50_us on query"},
	{"table.decoded_per_query", "count", "lower", "p50_us on query"},
	{"table.skipped_frac", "ratio", "higher", "p50_us on query"},
	{"table.records_per_word", "count", "higher", "p50_us on query"},
	{"core.place_us", "us", "lower", "ops_per_s and setup_s on ingest"},
	{"core.ratings_per_insert", "count", "lower", "ops_per_s on ingest; efficiency must not move"},
	{"core.splits_per_1k_inserts", "count", "lower", "ops_per_s on ingest"},
	{"core.partitions", "count", "lower", "ops_per_s on ingest; efficiency must not move"},
	{"tier.frozen_partitions", "count", "higher", "heap_bytes_per_record on query"},
	{"tier.cold_bytes_per_query", "B", "lower", "p99_us on query"},
	{"share.wire_self", "ratio", "lower", "p50_us on query and mixed"},
	{"share.store", "ratio", "lower", "p50_us on every workload"},
	{"share.commit_wait", "ratio", "lower", "p50_us on mixed"},
	{"trace.overhead_pct", "%", "lower", "none; bounds the traced run"},
}

// report is one run's measurements.
type report struct {
	sp *spec
	o  options
	in *inputs
	p  *phase

	setupTs         []float64
	efficiency      float64
	heapPerRecord   float64
	diskPerUserByte float64
	partitions      int
	frozen          int
	delta           counters
	layers          map[string]float64
	writeSplit      [3]float64 // traced: mean write call, store, commit µs outside checkpoints
	writeSplitN     int
	spansPath       string
	correct         bool
}

// counters is a reading of the registry the benchmark hands the store
// (the counters /metrics serves) plus client-side byte counts.
type counters struct {
	c         [obs.CTierThaws + 1]int64
	histCount map[string]int64
	histSumNs map[string]float64
	wireBytes int64
	coldBytes int64
}

func snap(s *stack) counters {
	var out counters
	for c := range out.c {
		out.c[c] = s.reg.Counter(obs.Counter(c))
	}
	out.histCount, out.histSumNs = map[string]int64{}, map[string]float64{}
	for name, h := range s.reg.Snapshot().Histograms {
		out.histCount[name] = h.Count
		out.histSumNs[name] = h.MeanNs * float64(h.Count)
	}
	out.wireBytes = s.cl.BytesSent() + s.cl.BytesReceived()
	if s.dt != nil {
		_, out.coldBytes = s.dt.ColdIOStats()
	}
	return out
}

func (a counters) minus(b counters) counters {
	out := counters{histCount: map[string]int64{}, histSumNs: map[string]float64{}}
	for i := range a.c {
		out.c[i] = a.c[i] - b.c[i]
	}
	for k := range a.histCount {
		out.histCount[k] = a.histCount[k] - b.histCount[k]
		out.histSumNs[k] = a.histSumNs[k] - b.histSumNs[k]
	}
	out.wireBytes = a.wireBytes - b.wireBytes
	out.coldBytes = a.coldBytes - b.coldBytes
	return out
}

// histMeanUs is the mean of a registry histogram over the phase.
func (a counters) histMeanUs(name string) float64 {
	if a.histCount[name] == 0 {
		return 0
	}
	return a.histSumNs[name] / float64(a.histCount[name]) / 1e3
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// efficiency is Definition 1 over the 30 representative queries, run
// once on the quiet store: relevant bytes / bytes read.
func efficiency(s *stack, in *inputs) float64 {
	var rel, read int64
	for _, q := range in.reps {
		_, rep := s.st.QueryWithReport(q.attrs...)
		rel += rep.BytesRelevant
		read += rep.BytesRead
	}
	if read == 0 {
		return 1
	}
	return float64(rel) / float64(read)
}

func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// diskPerUserByte is the size of the store's files over the SIZE() of
// the live records.
func diskPerUserByte(s *stack, in *inputs, p *phase, m *model) (float64, error) {
	disk, err := diskBytes(s.dir)
	if err != nil {
		return 0, err
	}
	var user int64
	if m != nil {
		for _, ent := range m.live {
			user += in.ents[ent].Size()
		}
	} else {
		for i := 0; i < in.preload; i++ {
			user += in.ents[i].Size()
		}
		for _, o := range p.ops {
			user += in.ents[o.ent].Size()
		}
	}
	return ratio(float64(disk), float64(user)), nil
}

// pct is the nearest-rank percentile of sorted durations, in µs, with
// the number of samples above it.
func pct(sorted []time.Duration, q float64) (v float64, beyond int) {
	if len(sorted) == 0 {
		return 0, 0
	}
	k := int(math.Ceil(q*float64(len(sorted)))) - 1
	if k < 0 {
		k = 0
	}
	return us(sorted[k]), len(sorted) - 1 - k
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// e2e computes the end-to-end metrics from the untraced samples.
func (r *report) e2e() map[string]float64 {
	all := r.p.latencies(func(s sample) bool { return !s.traced })
	p99, _ := pct(all, 0.99)
	return map[string]float64{
		"setup_s":                  median(r.setupTs),
		"ops_per_s":                float64(r.p.docs.Load()+r.p.queries.Load()) / r.p.elapsed.Seconds(),
		"p50_us":                   r.p50(),
		"p99_us":                   p99,
		"efficiency":               r.efficiency,
		"heap_bytes_per_record":    r.heapPerRecord,
		"disk_bytes_per_user_byte": r.diskPerUserByte,
	}
}

// p50 is the mean of the read p50 and the write p50 over the untraced
// calls, or the one of them a workload has. The median of an even mix
// of reads and writes falls in the gap between their two latency modes
// and swings with small shifts of either; each kind's own median does
// not.
func (r *report) p50() float64 {
	var sum float64
	var kinds int
	for _, write := range []bool{false, true} {
		lat := r.p.latencies(func(s sample) bool { return !s.traced && s.write == write })
		if len(lat) > 0 {
			v, _ := pct(lat, 0.5)
			sum += v
			kinds++
		}
	}
	return ratio(sum, float64(kinds))
}

type resultMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type summary struct {
	Correct   bool                    `json:"correct"`
	Attempted int64                   `json:"attempted"`
	Failed    int64                   `json:"failed"`
	Metrics   map[string]resultMetric `json:"metrics"`
}

// summary is the final stdout line: the end-to-end metrics, or with
// --trace 1 the per-layer ones.
func (r *report) summary() summary {
	out := summary{Correct: r.correct, Attempted: r.p.attempted.Load(), Failed: r.p.failed.Load(), Metrics: map[string]resultMetric{}}
	defs, vals := e2eDefs, r.e2e()
	if r.o.trace {
		defs, vals = layerDefs, r.layers
	}
	for _, d := range defs {
		out.Metrics[d.name] = resultMetric{Value: vals[d.name], Unit: d.unit}
	}
	return out
}

// meta is the run's context, printed with every result.
func (r *report) meta() map[string]any {
	late := append([]time.Duration(nil), r.p.late...)
	sort.Slice(late, func(i, j int) bool { return late[i] < late[j] })
	lateP50, _ := pct(late, 0.5)
	lateP99, _ := pct(late, 0.99)
	var lateMax float64
	if len(late) > 0 {
		lateMax = us(late[len(late)-1])
	}
	m := map[string]any{
		"workload": r.sp.name, "seed": r.o.seed, "seconds": r.o.seconds, "trace": r.o.trace,
		"num_cpu": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "go_version": runtime.Version(),
		"source_sha256": source(), "shards": r.sp.shards, "w": r.sp.w, "b": r.sp.b,
		"preload": r.in.preload, "clients": clients, "partitions": r.partitions, "frozen": r.frozen,
		"setup_s_each": r.setupTs, "samples": len(r.p.samples), "elapsed_s": r.p.elapsed.Seconds(),
	}
	if r.sp.rate > 0 {
		m["offered_rate_per_s"] = r.sp.rate
		m["workers"] = workers
		m["generator_late_us"] = map[string]float64{"p50": lateP50, "p99": lateP99, "max": lateMax}
		var ck []float64
		for _, iv := range r.p.checkpoints {
			ck = append(ck, float64(iv.end.Sub(iv.start))/float64(time.Millisecond))
		}
		m["checkpoint_ms_each"] = ck
	}
	if r.spansPath != "" {
		m["spans"] = r.spansPath
	}
	return m
}

// source names the measured code by a digest of the Go sources under
// the working directory. run.sh builds with -buildvcs=false, so the
// binary carries no commit; the digest identifies the code whether it
// is committed or not.
func source() string {
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != "." {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", path, len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown: " + err.Error()
	}
	return hex.EncodeToString(h.Sum(nil))
}

// print writes the human-readable report: metadata, every metric by
// name and unit with its sample count, and any correctness failure.
func (r *report) print(w io.Writer) {
	meta, _ := json.Marshal(r.meta())
	fmt.Fprintf(w, "meta %s\n", meta)
	e := r.e2e()
	all := r.p.latencies(func(s sample) bool { return !s.traced })
	_, beyond := pct(all, 0.99)
	for _, d := range e2eDefs {
		extra := ""
		switch d.name {
		case "p50_us":
			extra = fmt.Sprintf("  (mean of the read and write p50s where both occur; n=%d)", len(all))
		case "p99_us":
			extra = fmt.Sprintf("  (n=%d, %d beyond)", len(all), beyond)
		case "setup_s":
			extra = fmt.Sprintf("  (median of %d)", len(r.setupTs))
		}
		fmt.Fprintf(w, "e2e   %-26s %14.4f %-6s%s\n", d.name, e[d.name], d.unit, extra)
	}
	// The read/write split and the error rate, where they apply.
	el := r.p.elapsed.Seconds()
	for _, c := range []struct {
		kind  string
		write bool
		count int64
		unit  string
	}{{"write", true, r.p.docs.Load(), "docs/s"}, {"read", false, r.p.queries.Load(), "queries/s"}} {
		lat := r.p.latencies(func(s sample) bool { return !s.traced && s.write == c.write })
		if len(lat) == 0 {
			continue
		}
		p50, _ := pct(lat, 0.5)
		p99, beyond := pct(lat, 0.99)
		if r.sp.rate == 0 {
			fmt.Fprintf(w, "split %-26s %14.4f %s\n", c.kind+"_ops_per_s", float64(c.count)/el, c.unit)
		}
		fmt.Fprintf(w, "split %-26s %14.4f us     (n=%d)\n", c.kind+"_p50_us", p50, len(lat))
		fmt.Fprintf(w, "split %-26s %14.4f us     (n=%d, %d beyond)\n", c.kind+"_p99_us", p99, len(lat), beyond)
	}
	fmt.Fprintf(w, "split %-26s %14.6f fraction (%d of %d calls)\n", "error_rate",
		ratio(float64(r.p.failed.Load()), float64(r.p.attempted.Load())), r.p.failed.Load(), r.p.attempted.Load())
	for _, d := range layerDefs {
		if v, ok := r.layers[d.name]; ok {
			fmt.Fprintf(w, "layer %-32s %14.4f %-6s moves: %s\n", d.name, v, d.unit, d.moves)
		}
	}
	if c := r.writeSplit; r.writeSplitN > 0 {
		fmt.Fprintf(w, "attribution of %d write calls outside checkpoints (mean us): call %.1f = store %.1f + commit wait %.1f + remainder %.1f\n",
			r.writeSplitN, c[0], c[1], c[2], c[0]-c[1]-c[2])
	}
	if r.correct {
		fmt.Fprintln(w, "check ok")
	}
	for _, e := range r.p.callErrs {
		fmt.Fprintf(w, "call error: %s\n", e)
	}
	for _, e := range r.p.errs {
		fmt.Fprintf(w, "check FAILED: %s\n", e)
	}
}
