// Command perfbench is the repository's end-to-end benchmark. It serves
// a store the way cmd/cinderellad does with -bin-addr (binary wire
// server, group committer, WAL, fsync) on loopback, drives one workload
// through client.Binary, checks every answer, and prints the metrics
// named in BENCHMARK.json. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload ingest|query|mixed --seed N --seconds S --trace 0|1
//
// --trace 0 reports the end-to-end metrics; --trace 1 wraps the
// wire.Store, wire.Acker and server.Syncer seams in timing spans,
// replays the inserts into a bare table.Table and core.Cinderella, and
// reports the per-layer metrics. Spans go to --trace-out.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// The load shape every workload shares: one process, at most two
// connections (client.WithConns(2)) and two closed-loop clients.
const (
	clients  = 2
	batch    = 16     // ingest: documents per InsertMany
	zipfS    = 1.2    // query: Zipf exponent over the ranked mix
	draws    = 200000 // query: length of the drawn query sequence
	heatPass = 300    // query: draws run once during set-up to heat partitions
	workers  = 64     // mixed: goroutines executing scheduled calls
)

// spec sizes one workload.
type spec struct {
	name    string
	shards  int // 1 = DurableTable, >1 = shard.Sharded
	w       float64
	b       int64
	preload int // documents loaded during set-up
	pool    int // further documents the measured phase may send
	docsPer int // ingest: documents sent per requested second (fixed work)
	setups  int // set-ups per untraced run; setup_s is their median
	maxSel  float64

	rate            float64 // mixed: offered calls per second (open loop)
	checkpointEvery int     // mixed: Checkpoint after this many acked writes
}

// specs are the workloads at full size; tests shrink copies.
func specs() map[string]*spec {
	return map[string]*spec{
		"ingest": {name: "ingest", shards: 1, w: 0.2, b: 100, preload: 20000, pool: 120000, docsPer: 2500, setups: 3, maxSel: 1},
		"query":  {name: "query", shards: 1, w: 0.2, b: 500, preload: 50000, setups: 3, maxSel: 0.05},
		"mixed": {name: "mixed", shards: 2, w: 0.5, b: 500, preload: 50000, pool: 20000, setups: 3, maxSel: 0.01,
			rate: 360, checkpointEvery: 300},
	}
}

// ingestDocs is the fixed number of documents the ingest phase sends:
// docsPer for every requested second, in whole batches. A faster
// program finishes them sooner; the store ends the same size either way,
// so efficiency and the per-record sizes do not move with speed.
func ingestDocs(sp *spec, seconds float64) int {
	return max(1, int(float64(sp.docsPer)*seconds)/batch) * batch
}

type options struct {
	seed     int64
	seconds  float64
	trace    bool
	dataDir  string
	traceOut string
}

func main() {
	var (
		name  string
		o     options
		trace int
	)
	flag.StringVar(&name, "workload", "", "workload: ingest, query or mixed")
	flag.Int64Var(&o.seed, "seed", 1, "input seed")
	flag.Float64Var(&o.seconds, "seconds", 10, "length of the measured phase in seconds; ingest sends a fixed number of documents sized from it")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&o.dataDir, "data", ".bench_build/data", "directory for the stores' files (removed after the run)")
	flag.StringVar(&o.traceOut, "trace-out", ".bench_build/trace", "directory the traced run writes its spans to")
	flag.Parse()
	sp, ok := specs()[name]
	if !ok || o.seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload ingest|query|mixed, --seconds > 0, --trace 0|1")
		os.Exit(2)
	}
	o.trace = trace == 1

	r, err := run(sp, o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	r.print(os.Stdout)
	line, err := json.Marshal(r.summary())
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !r.correct {
		os.Exit(1)
	}
}

// run sets the workload up, measures it, checks it, and tears it down.
func run(sp *spec, o options) (*report, error) {
	if n := ingestDocs(sp, o.seconds); sp.docsPer > 0 && n > sp.pool {
		return nil, fmt.Errorf("%g seconds of ingest need %d documents, the pool holds %d", o.seconds, n, sp.pool)
	}
	in, err := genInputs(sp, o.seed)
	if err != nil {
		return nil, err
	}
	root, err := filepath.Abs(o.dataDir)
	if err != nil {
		return nil, err
	}
	root = filepath.Join(root, fmt.Sprintf("%s-%d", sp.name, os.Getpid()))
	defer os.RemoveAll(root)

	var tr *tracer
	setups := sp.setups
	if o.trace {
		tr, setups = newTracer(), 1
	}
	heap0 := liveHeap()
	var (
		s       *stack
		setupTs []float64
	)
	for i := 0; i < setups; i++ {
		if s != nil {
			if err := s.close(); err != nil {
				return nil, fmt.Errorf("closing set-up %d: %w", i, err)
			}
		}
		dir := filepath.Join(root, fmt.Sprint(i))
		var d time.Duration
		if s, d, err = openStack(sp, in, dir, tr); err != nil {
			return nil, err
		}
		setupTs = append(setupTs, d.Seconds())
	}
	open := true
	defer func() {
		if open {
			s.close()
		}
	}()

	var (
		m          *model
		want       []idSet
		modelBytes int64 // the client-side model is benchmark state, not the store's
	)
	switch sp.name {
	case "query":
		want = oracle(in, s.ids)
	case "mixed":
		h := liveHeap()
		m = newModel(in, s.ids)
		modelBytes = int64(liveHeap()) - int64(h)
	}
	before := snap(s)
	p := &phase{start: time.Now()}
	deadline := p.start.Add(time.Duration(o.seconds * float64(time.Second)))
	stop := make(chan struct{})
	toggled := make(chan struct{})
	if tr != nil {
		go func() { toggle(tr, 250*time.Millisecond, stop); close(toggled) }()
	} else {
		close(toggled)
	}
	switch sp.name {
	case "ingest":
		runIngest(s, in, tr, p, ingestDocs(sp, o.seconds))
	case "query":
		runQuery(s, in, want, tr, p, deadline)
	case "mixed":
		runMixed(s, in, m, tr, p, deadline)
	}
	p.elapsed = time.Since(p.start)
	close(stop)
	<-toggled
	after := snap(s)

	r := &report{sp: sp, o: o, in: in, p: p, setupTs: setupTs, frozen: s.frozen}
	r.efficiency = efficiency(s, in)
	r.heapPerRecord = float64(int64(liveHeap())-int64(heap0)-modelBytes) / float64(s.st.Len())
	if r.diskPerUserByte, err = diskPerUserByte(s, in, p, m); err != nil {
		return nil, err
	}
	r.partitions = len(s.st.Partitions())
	r.delta = after.minus(before)

	switch sp.name {
	case "ingest":
		checkIngest(s, in, p)
	case "mixed":
		checkModel(s.st, m, p, "live")
	}
	if tr != nil {
		r.layers = layerMetrics(s, in, tr, p, r)
		c, st, cm, n := writeAttribution(tr, p)
		r.writeSplit, r.writeSplitN = [3]float64{c, st, cm}, n
	}
	open = false
	if err := s.close(); err != nil {
		return nil, fmt.Errorf("closing: %w", err)
	}
	if sp.name == "mixed" {
		// Recount from the WAL alone: reopen and compare with the model.
		st, _, _, err := openStore(sp, s.dir, nil)
		if err != nil {
			return nil, fmt.Errorf("reopening: %w", err)
		}
		checkModel(st, m, p, "after reopen")
		if err := st.Close(); err != nil {
			return nil, fmt.Errorf("closing reopened store: %w", err)
		}
	}
	if tr != nil {
		path := filepath.Join(o.traceOut, fmt.Sprintf("%s-seed%d.jsonl", sp.name, o.seed))
		if err := tr.write(path); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
		r.spansPath = path
	}
	r.correct = p.correct()
	return r, nil
}
