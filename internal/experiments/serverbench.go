package experiments

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"cinderella"
	"cinderella/client"
	"cinderella/internal/obs"
	"cinderella/internal/server"
	"cinderella/internal/wire"
)

// ServerBench measures what group commit buys the service layer: the
// durable-insert throughput of N concurrent writers when every write
// pays its own WAL fsync versus when a single batching committer
// coalesces the acknowledgements (internal/server). Both modes run
// against a real WAL on disk, so the speedup is the fsync amortization
// the paper's durability story needs, not a micro-benchmark artifact.
// The per-op arm exists only here, as direct DurableTable calls: the
// server itself always group-commits. The acceptance bar for this repo
// is GroupSpeedup ≥ 3 at 64 clients; cmd/cinderella-bench serializes
// the result as BENCH_server.json.

// ServerBenchResult compares per-op sync against group commit.
type ServerBenchResult struct {
	GOMAXPROCS int     `json:"gomaxprocs"`
	Clients    int     `json:"clients"`
	SecsPerRun float64 `json:"secs_per_run"`

	// Direct calls into DurableTable: the pure storage-layer comparison.
	PerOpOpsPerSec float64 `json:"per_op_ops_per_sec"`
	PerOpFsyncs    int64   `json:"per_op_syncs"`
	GroupOpsPerSec float64 `json:"group_ops_per_sec"`
	GroupCommits   int64   `json:"group_commits"`
	GroupMeanBatch float64 `json:"group_mean_batch"`
	GroupSpeedup   float64 `json:"group_speedup"`

	// Group commit end-to-end over HTTP through the server and the typed
	// client (includes JSON + transport cost).
	HTTPGroupOpsPerSec float64 `json:"http_group_ops_per_sec"`

	// The binary wire protocol (internal/wire) with client-side batching,
	// sharing the same group committer. This is the network-gap fix: the
	// acceptance bar is WireVsHTTPGroup ≥ 3 at 64 clients.
	WireBatchOpsPerSec float64 `json:"wire_batch_ops_per_sec"`
	WireBytesPerOp     float64 `json:"wire_bytes_per_op"`
	WireOps            int64   `json:"wire_ops"`
	WireFrames         int64   `json:"wire_frames"`
	WireVsHTTPGroup    float64 `json:"wire_vs_http_group"`
}

// ServerBench runs the comparison with 64 concurrent clients and a
// fixed wall-clock budget per mode.
func ServerBench(o Options) ServerBenchResult {
	return serverBench(64, 400*time.Millisecond)
}

func serverBench(clients int, dur time.Duration) ServerBenchResult {
	res := ServerBenchResult{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Clients:    clients,
		SecsPerRun: dur.Seconds(),
	}

	docs := benchDocs(16384)
	var seq atomic.Uint64
	nextDoc := func() cinderella.Doc { return docs[int(seq.Add(1))%len(docs)] }

	// Direct, per-op sync: every insert pays its own fsync.
	perOpOps, perOpReg := directRun(clients, dur, func(d *cinderella.DurableTable, _ *obs.Registry) func() error {
		return func() error {
			if _, err := d.Insert(nextDoc()); err != nil {
				return err
			}
			return d.Sync()
		}
	})
	res.PerOpOpsPerSec = perOpOps
	res.PerOpFsyncs = perOpReg.Counter(obs.CWALSyncs)

	// Direct, group commit: inserts share fsyncs through the committer.
	var com *server.Committer
	groupOps, groupReg := directRun(clients, dur, func(d *cinderella.DurableTable, reg *obs.Registry) func() error {
		com = server.NewCommitter(d, 0, 0, reg)
		return func() error {
			if _, err := d.Insert(nextDoc()); err != nil {
				return err
			}
			return com.Commit(context.Background(), d.LastLSN())
		}
	})
	com.Stop()
	res.GroupOpsPerSec = groupOps
	res.GroupCommits = groupReg.Counter(obs.CGroupCommits)
	if res.GroupCommits > 0 {
		res.GroupMeanBatch = float64(groupReg.Counter(obs.CGroupCommitOps)) / float64(res.GroupCommits)
	}
	if res.PerOpOpsPerSec > 0 {
		res.GroupSpeedup = res.GroupOpsPerSec / res.PerOpOpsPerSec
	}

	// End-to-end over HTTP.
	res.HTTPGroupOpsPerSec = httpRun(clients, dur, nextDoc)

	// End-to-end over the binary wire protocol with client batching.
	res.WireBatchOpsPerSec, res.WireBytesPerOp, res.WireOps, res.WireFrames = wireRun(clients, dur, nextDoc)
	if res.HTTPGroupOpsPerSec > 0 {
		res.WireVsHTTPGroup = res.WireBatchOpsPerSec / res.HTTPGroupOpsPerSec
	}
	return res
}

// directRun opens a fresh WAL-backed table, lets setup build the
// per-worker op, and hammers it from `clients` goroutines for dur.
func directRun(clients int, dur time.Duration, setup func(*cinderella.DurableTable, *obs.Registry) func() error) (opsPerSec float64, reg *obs.Registry) {
	reg = obs.New(obs.Options{})
	d, done := openBenchTable(reg)
	defer done()
	opsPerSec, _ = hammer(clients, dur, setup(d, reg))
	return opsPerSec, reg
}

// httpRun measures acked inserts/s through a real Server + Client pair.
func httpRun(clients int, dur time.Duration, nextDoc func() cinderella.Doc) float64 {
	d, done := openBenchTable(nil)
	defer done()
	srv := server.New(d, server.Config{
		MaxInflight: clients,
		MaxQueue:    clients,
	})
	ts := httptest.NewServer(srv.Handler())
	defer func() {
		ts.Close()
		srv.Finish(false)
	}()

	cl, err := client.New(ts.URL)
	if err != nil {
		panic(err)
	}
	opsPerSec, _ := hammer(clients, dur, func() error {
		_, err := cl.Insert(context.Background(), nextDoc())
		return err
	})
	return opsPerSec
}

// wireRun measures acked inserts/s through the binary wire server and
// the batching binary client, sharing a group committer the way
// cinderellad wires them together. Returns throughput, frame bytes per
// acked op, and the server's op/frame counters (frames < ops shows the
// client batching at work).
func wireRun(clients int, dur time.Duration, nextDoc func() cinderella.Doc) (opsPerSec, bytesPerOp float64, ops, frames int64) {
	reg := obs.New(obs.Options{})
	d, done := openBenchTable(reg)
	com := server.NewCommitter(d, 0, 0, reg)
	wsrv := wire.New(d, com, wire.Config{Obs: reg})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		panic(err)
	}
	go wsrv.Serve(ln)

	conns := clients/8 + 1
	if conns > 16 {
		conns = 16
	}
	bc, err := client.NewBinary(ln.Addr().String(), client.WithConns(conns))
	if err != nil {
		panic(err)
	}
	defer func() {
		bc.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		wsrv.Shutdown(ctx)
		cancel()
		com.Stop()
		done()
	}()

	opsPerSec, acked := hammer(clients, dur, func() error {
		_, err := bc.Insert(context.Background(), nextDoc())
		return err
	})
	if acked > 0 {
		bytesPerOp = float64(bc.BytesSent()+bc.BytesReceived()) / float64(acked)
	}
	return opsPerSec, bytesPerOp, reg.Counter(obs.CWireOps), reg.Counter(obs.CWireFrames)
}

// openBenchTable opens a fresh WAL-backed table in a temp directory.
// done closes the table and removes the directory.
func openBenchTable(reg *obs.Registry) (d *cinderella.DurableTable, done func()) {
	dir, err := os.MkdirTemp("", "cinderella-serverbench")
	if err != nil {
		panic(err)
	}
	d, err = cinderella.OpenFile(filepath.Join(dir, "bench.wal"), cinderella.Config{
		PartitionSizeLimit: 4096,
		Obs:                reg,
	})
	if err != nil {
		panic(err)
	}
	return d, func() {
		d.Close()
		os.RemoveAll(dir)
	}
}

// hammer runs op from `clients` goroutines until dur has passed and
// returns the acked-op rate and count; an op error panics.
func hammer(clients int, dur time.Duration, op func() error) (opsPerSec float64, acked int64) {
	var n atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := op(); err != nil {
					panic(err)
				}
				n.Add(1)
			}
		}()
	}
	time.Sleep(dur)
	close(stop)
	wg.Wait()
	acked = n.Load()
	return float64(acked) / time.Since(start).Seconds(), acked
}

// benchDocs builds a pool of small documents cycling through a few
// schema shapes so the partitioner has real (if light) work to do. The
// pool is built outside the timed region: the benchmark measures the
// cost of durability, not of allocating request payloads. Inserting a
// pooled doc repeatedly is safe — Insert only reads the map.
func benchDocs(n int) []cinderella.Doc {
	docs := make([]cinderella.Doc, n)
	for i := range docs {
		doc := cinderella.Doc{"id": int64(i), "name": fmt.Sprintf("entity-%d", i)}
		switch i % 3 {
		case 0:
			doc["population"] = int64(i * 17)
		case 1:
			doc["elevation"] = float64(i) * 0.25
		default:
			doc["kind"] = "irregular"
		}
		docs[i] = doc
	}
	return docs
}

// Print renders the comparison like the other experiment reports.
func (r ServerBenchResult) Print(w io.Writer) {
	fprintf(w, "SERVER group commit (GOMAXPROCS=%d, %d clients, %.1fs per mode)\n",
		r.GOMAXPROCS, r.Clients, r.SecsPerRun)
	fprintf(w, "  direct:  per-op sync %.0f ops/s (%d fsyncs), group commit %.0f ops/s "+
		"(%d commits, mean batch %.1f) — %.1fx\n",
		r.PerOpOpsPerSec, r.PerOpFsyncs, r.GroupOpsPerSec,
		r.GroupCommits, r.GroupMeanBatch, r.GroupSpeedup)
	fprintf(w, "  http:    group commit %.0f ops/s\n", r.HTTPGroupOpsPerSec)
	fprintf(w, "  binary:  batched wire %.0f ops/s (%.1f bytes/op, %d ops over %d frames) — %.1fx vs http group\n",
		r.WireBatchOpsPerSec, r.WireBytesPerOp, r.WireOps, r.WireFrames, r.WireVsHTTPGroup)
}
