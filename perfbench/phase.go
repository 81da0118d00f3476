package main

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"cinderella"
)

// sample is one client call's latency.
type sample struct {
	d      time.Duration
	write  bool
	traced bool
}

// op is one acknowledged mutation, in ack order, kept for the
// correctness checks and the core/table replays.
type op struct {
	kind byte // 'i', 'u' or 'd'
	id   cinderella.ID
	ent  int // generated entity index (insert, update)
}

type interval struct{ start, end time.Time }

// phase collects what the measured phase observed.
type phase struct {
	start   time.Time
	elapsed time.Duration

	mu          sync.Mutex
	samples     []sample
	ops         []op
	writes      []interval // mixed: write calls from scheduled send to ack
	checkpoints []interval
	late        []time.Duration // open loop: dispatch time minus due time

	docs, queries     atomic.Int64 // acknowledged documents, answered queries
	attempted, failed atomic.Int64 // client calls

	errMu    sync.Mutex
	errs     []string // correctness violations
	callErrs []string // the first failed calls' errors
}

func (p *phase) add(s sample) {
	p.mu.Lock()
	p.samples = append(p.samples, s)
	p.mu.Unlock()
}

// fail records a correctness violation; the run reports correct=false.
func (p *phase) fail(format string, args ...any) {
	p.errMu.Lock()
	if len(p.errs) < 20 {
		p.errs = append(p.errs, fmt.Sprintf(format, args...))
	}
	p.errMu.Unlock()
}

// noteErr keeps the first few call errors for the report.
func (p *phase) noteErr(err error) {
	p.errMu.Lock()
	if len(p.callErrs) < 5 {
		p.callErrs = append(p.callErrs, err.Error())
	}
	p.errMu.Unlock()
}

func (p *phase) correct() bool {
	p.errMu.Lock()
	defer p.errMu.Unlock()
	return len(p.errs) == 0
}

// latencies returns the sorted latencies of the selected samples.
func (p *phase) latencies(keep func(sample) bool) []time.Duration {
	var out []time.Duration
	for _, s := range p.samples {
		if keep(s) {
			out = append(out, s.d)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// closedLoop runs clients that each send their next call only after the
// previous one returned, until call returns false.
func closedLoop(clients int, call func(c, i int) bool) {
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; call(c, i); i++ {
			}
		}(c)
	}
	wg.Wait()
}

// toggle switches the tracer on and off in alternating chunks until
// stop closes, so traced and untraced calls interleave in time and
// trace.overhead_pct compares like with like.
func toggle(tr *tracer, chunk time.Duration, stop <-chan struct{}) {
	t := time.NewTicker(chunk)
	defer t.Stop()
	for {
		select {
		case <-stop:
			tr.on.Store(false)
			return
		case <-t.C:
			tr.on.Store(!tr.on.Load())
		}
	}
}

// runIngest: closed-loop bulk loaders sending InsertMany batches of
// fresh documents until n have been sent.
func runIngest(s *stack, in *inputs, tr *tracer, p *phase, n int) {
	var next atomic.Int64
	next.Store(int64(in.preload))
	b := batch
	ctx := context.Background()
	closedLoop(clients, func(c, _ int) bool {
		lo := int(next.Add(int64(b))) - b
		if lo+b > in.preload+n {
			return false
		}
		docs := make([]cinderella.Doc, b)
		for j := range docs {
			docs[j] = in.doc(lo + j)
		}
		traced := tr.active()
		var call uint64
		if traced {
			call = tr.beginCall(0, nil)
		}
		t0 := time.Now()
		ids, err := s.cl.InsertMany(ctx, docs)
		t1 := time.Now()
		if traced {
			tr.endCall(call, 0, nil, "client.insert_many", t0, t1)
		}
		d := t1.Sub(t0)
		p.attempted.Add(1)
		if err != nil {
			p.failed.Add(1)
			p.noteErr(err)
		}
		p.mu.Lock()
		p.samples = append(p.samples, sample{d: d, write: true, traced: traced})
		for j, id := range ids {
			if id != 0 {
				p.ops = append(p.ops, op{kind: 'i', id: id, ent: lo + j})
			}
		}
		p.mu.Unlock()
		p.docs.Add(int64(countNonZero(ids)))
		return true
	})
}

func countNonZero(ids []cinderella.ID) int {
	n := 0
	for _, id := range ids {
		if id != 0 {
			n++
		}
	}
	return n
}

// checkIngest: Len() is preload plus acked, and every acked id returns
// the document sent (every 64th also over the wire).
func checkIngest(s *stack, in *inputs, p *phase) {
	if got, want := s.st.Len(), in.preload+len(p.ops); got != want {
		p.fail("ingest: Len() = %d, want preload %d + acked %d", got, in.preload, len(p.ops))
	}
	ctx := context.Background()
	for k, o := range p.ops {
		want := in.doc(o.ent)
		got, ok := s.st.Get(o.id)
		if !ok || !docEqual(got, want) {
			p.fail("ingest: acked id %d does not round-trip through Get", o.id)
			continue
		}
		if k%64 == 0 {
			wd, ok, err := s.cl.Get(ctx, o.id)
			if err != nil || !ok || !docEqual(wd, want) {
				p.fail("ingest: acked id %d does not round-trip through the wire Get (err %v)", o.id, err)
			}
		}
	}
}

// oracle digests each mix query's relevant preloaded ids.
func oracle(in *inputs, ids []cinderella.ID) []idSet {
	out := make([]idSet, len(in.mix))
	for k := range in.mix {
		for i, id := range ids {
			if in.relevant(i, &in.mix[k]) {
				out[k].add(id)
			}
		}
	}
	return out
}

// runQuery: closed-loop readers drawing Zipf-ranked queries; every
// answer is checked against want, the brute-force oracle.
func runQuery(s *stack, in *inputs, want []idSet, tr *tracer, p *phase, deadline time.Time) {
	ctx := context.Background()
	n := clients
	closedLoop(n, func(c, i int) bool {
		if !time.Now().Before(deadline) {
			return false
		}
		k := in.pick[(heatPass+c+i*n)%len(in.pick)]
		q := &in.mix[k]
		traced := tr.active()
		var call uint64
		if traced {
			call = tr.beginCall(0, q.attrs)
		}
		t0 := time.Now()
		recs, err := s.cl.Query(ctx, q.attrs...)
		t1 := time.Now()
		if traced {
			tr.endCall(call, 0, q.attrs, "client.query", t0, t1)
		}
		p.attempted.Add(1)
		if err != nil {
			p.failed.Add(1)
			p.noteErr(err)
			return true
		}
		p.add(sample{d: t1.Sub(t0), traced: traced})
		p.queries.Add(1)
		var got idSet
		for _, r := range recs {
			got.add(r.ID)
		}
		if got != want[k] {
			p.fail("query %v: returned %d ids, oracle has %d (or the id sets differ)", q.attrs, got.n, want[k].n)
		}
		return true
	})
}
