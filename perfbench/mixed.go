package main

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"cinderella"
	"cinderella/client"
)

// model is the client-side record of the acknowledged state: which
// generated entity each live id holds, which ids were deleted, and
// which ids have a write in flight. Queries are checked only on ids no
// write touched while the query was in flight.
type model struct {
	mu      sync.Mutex
	live    map[cinderella.ID]int // id -> generated entity index
	gone    map[cinderella.ID]bool
	unknown map[cinderella.ID]bool // a write failed; state not known
	idle    []cinderella.ID        // live ids with no write in flight
	busy    map[cinderella.ID]bool
	touch   map[cinderella.ID]uint64 // seq of the last send or ack
	seq     uint64

	in      *inputs
	queried map[string]bool                   // attributes the mix queries
	index   map[string]map[cinderella.ID]bool // queried attribute -> live ids holding it
}

func newModel(in *inputs, ids []cinderella.ID) *model {
	m := &model{
		live: map[cinderella.ID]int{}, gone: map[cinderella.ID]bool{}, unknown: map[cinderella.ID]bool{},
		busy: map[cinderella.ID]bool{}, touch: map[cinderella.ID]uint64{},
		seq: 1, in: in, queried: map[string]bool{}, index: map[string]map[cinderella.ID]bool{},
	}
	for _, q := range in.mix {
		for _, a := range q.attrs {
			m.queried[a] = true
			m.index[a] = map[cinderella.ID]bool{}
		}
	}
	for i, id := range ids {
		m.setLive(id, i)
		m.makeIdle(id)
	}
	return m
}

func (m *model) setLive(id cinderella.ID, ent int) {
	if old, ok := m.live[id]; ok {
		m.indexEntity(id, old, false)
	}
	m.live[id] = ent
	m.indexEntity(id, ent, true)
}

func (m *model) indexEntity(id cinderella.ID, ent int, add bool) {
	for _, f := range m.in.ents[ent].Fields() {
		if name := m.in.names[f.Attr]; m.queried[name] {
			if add {
				m.index[name][id] = true
			} else {
				delete(m.index[name], id)
			}
		}
	}
}

func (m *model) makeIdle(id cinderella.ID) { m.idle = append(m.idle, id) }

// take picks a random live id with no write in flight and marks it
// busy. The caller holds m.mu.
func (m *model) take(rng *rand.Rand) (cinderella.ID, bool) {
	if len(m.idle) == 0 {
		return 0, false
	}
	k := rng.Intn(len(m.idle))
	id := m.idle[k]
	m.idle[k] = m.idle[len(m.idle)-1]
	m.idle = m.idle[:len(m.idle)-1]
	m.busy[id] = true
	m.seq++
	m.touch[id] = m.seq
	return id, true
}

// ack applies an acknowledged (err == nil) or failed write.
func (m *model) ack(kind byte, id cinderella.ID, ent int, found bool, err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.seq++
	if id != 0 {
		m.touch[id] = m.seq
		delete(m.busy, id)
	}
	switch {
	case err != nil:
		if id != 0 {
			m.unknown[id] = true
		}
	case kind == 'i':
		m.setLive(id, ent)
		m.makeIdle(id)
	case kind == 'u' && found:
		m.setLive(id, ent)
		m.makeIdle(id)
	case kind == 'd' && found:
		m.indexEntity(id, m.live[id], false)
		delete(m.live, id)
		m.gone[id] = true
	default:
		m.unknown[id] = true // the model holds it live, the store did not
	}
}

// stable reports whether id's state was settled before a query sent at
// seq s0 and stayed so until now.
func (m *model) stable(id cinderella.ID, s0 uint64) bool {
	return !m.busy[id] && !m.unknown[id] && m.touch[id] < s0
}

// checkQuery compares a result against the model for every stable id.
func (m *model) checkQuery(q *query, s0 uint64, got []cinderella.ID, p *phase) {
	m.mu.Lock()
	defer m.mu.Unlock()
	returned := make(map[cinderella.ID]bool, len(got))
	for _, id := range got {
		returned[id] = true
		if !m.stable(id, s0) {
			continue
		}
		ent, ok := m.live[id]
		if !ok && m.gone[id] {
			p.fail("query %v returned deleted id %d", q.attrs, id)
		} else if ok && !m.in.relevant(ent, q) {
			p.fail("query %v returned irrelevant id %d", q.attrs, id)
		}
	}
	for _, a := range q.attrs {
		for id := range m.index[a] {
			if !returned[id] && m.stable(id, s0) {
				p.fail("query %v missed relevant id %d", q.attrs, id)
			}
		}
	}
}

var errBacklog = errors.New("open loop: calls still unsent at the end of the run")

// task is one scheduled call of the open loop.
type task struct {
	due  time.Time
	kind byte // 'q', 'i', 'u', 'd'
	q    int  // mix index
	id   cinderella.ID
	ent  int
}

// runMixed offers single writes and rare-attribute queries at a fixed
// rate from one dispatcher, whatever the server's pace; each call is
// timed from its scheduled send time.
func runMixed(s *stack, in *inputs, m *model, tr *tracer, p *phase, deadline time.Time) {
	ctx := context.Background()
	work := make(chan task)
	var wg sync.WaitGroup
	var acked atomic.Int64

	ckpt := make(chan struct{}, 1)
	ckptDone := make(chan struct{})
	go func() {
		defer close(ckptDone)
		for range ckpt {
			t0 := time.Now()
			if err := s.st.Checkpoint(); err != nil {
				p.fail("checkpoint: %v", err)
			}
			p.mu.Lock()
			p.checkpoints = append(p.checkpoints, interval{t0, time.Now()})
			p.mu.Unlock()
		}
	}()

	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for t := range work {
				execTask(ctx, s, in, m, tr, p, t)
				if t.kind != 'q' && acked.Add(1)%int64(s.sp.checkpointEvery) == 0 {
					select {
					case ckpt <- struct{}{}:
					default: // one is running; skip rather than queue
					}
				}
			}
		}()
	}

	rng := in.rng
	next := in.preload
	gap := time.Duration(float64(time.Second) / s.sp.rate)
	for i := 0; ; i++ {
		due := p.start.Add(time.Duration(i) * gap)
		if !due.Before(deadline) {
			break
		}
		if time.Since(deadline) > time.Second {
			// The server fell a second behind the schedule: calls still
			// unsent then count as refused.
			unsent := int64(deadline.Sub(due)/gap) + 1
			p.attempted.Add(unsent)
			p.failed.Add(unsent)
			p.noteErr(errBacklog)
			break
		}
		t := task{due: due}
		r := rng.Float64()
		switch {
		case r < 0.5:
			t.kind, t.q = 'q', rng.Intn(len(in.mix))
		case r < 0.75:
			t.kind = 'i'
		case r < 0.9:
			t.kind = 'u'
		default:
			t.kind = 'd'
		}
		if t.kind == 'u' || t.kind == 'd' {
			m.mu.Lock()
			id, ok := m.take(rng)
			m.mu.Unlock()
			if ok {
				t.id = id
			} else {
				t.kind = 'i'
			}
		}
		if t.kind == 'i' || t.kind == 'u' {
			if next == len(in.ents) {
				p.fail("mixed: input pool of %d documents exhausted", len(in.ents)-in.preload)
				break
			}
			t.ent, next = next, next+1
		}
		time.Sleep(time.Until(due))
		work <- t
		late := time.Since(due)
		p.mu.Lock()
		p.late = append(p.late, late)
		p.mu.Unlock()
	}
	close(work)
	wg.Wait()
	close(ckpt)
	<-ckptDone
}

// execTask runs one task and feeds its outcome to the model and the phase.
func execTask(ctx context.Context, s *stack, in *inputs, m *model, tr *tracer, p *phase, t task) {
	var (
		attrs []string
		s0    uint64
		name  = map[byte]string{'q': "client.query", 'i': "client.insert", 'u': "client.update", 'd': "client.delete"}[t.kind]
	)
	if t.kind == 'q' {
		attrs = in.mix[t.q].attrs
		m.mu.Lock()
		m.seq++
		s0 = m.seq
		m.mu.Unlock()
	}
	traced := tr.active()
	var call uint64
	if traced {
		call = tr.beginCall(t.id, attrs)
	}
	t0 := time.Now()
	var (
		err   error
		found bool
		id    = t.id
		recs  []cinderella.ID
	)
	switch t.kind {
	case 'q':
		var rs []client.Record
		rs, err = s.cl.Query(ctx, attrs...)
		for _, r := range rs {
			recs = append(recs, r.ID)
		}
	case 'i':
		id, err = s.cl.Insert(ctx, in.doc(t.ent))
	case 'u':
		found, err = s.cl.Update(ctx, t.id, in.doc(t.ent))
	case 'd':
		found, err = s.cl.Delete(ctx, t.id)
	}
	t1 := time.Now()
	if traced {
		tr.endCall(call, t.id, attrs, name, t0, t1)
	}
	p.attempted.Add(1)
	if err != nil {
		p.failed.Add(1)
		p.noteErr(err)
	}
	if t.kind == 'q' {
		if err == nil {
			p.add(sample{d: t1.Sub(t.due), traced: traced})
			p.queries.Add(1)
			m.checkQuery(&in.mix[t.q], s0, recs, p)
		}
		return
	}
	m.ack(t.kind, id, t.ent, found, err)
	p.mu.Lock()
	if err == nil {
		p.samples = append(p.samples, sample{d: t1.Sub(t.due), write: true, traced: traced})
		p.ops = append(p.ops, op{kind: t.kind, id: id, ent: t.ent})
	}
	p.writes = append(p.writes, interval{t.due, t1})
	p.mu.Unlock()
	if err == nil {
		p.docs.Add(1)
	}
}

// checkModel compares the model with Get of every id it knows.
func checkModel(st store, m *model, p *phase, when string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if got, want := st.Len(), len(m.live); got < want || got > want+len(m.unknown) {
		p.fail("mixed %s: Len() = %d, model holds %d live ids (%d unknown)", when, got, want, len(m.unknown))
	}
	for id, ent := range m.live {
		if m.unknown[id] {
			continue
		}
		if got, ok := st.Get(id); !ok || !docEqual(got, m.in.doc(ent)) {
			p.fail("mixed %s: Get(%d) does not match the acknowledged document", when, id)
		}
	}
	for id := range m.gone {
		if _, ok := st.Get(id); ok && !m.unknown[id] {
			p.fail("mixed %s: deleted id %d is still present", when, id)
		}
	}
}
