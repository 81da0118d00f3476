package main

import (
	"bufio"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cinderella"
	"cinderella/internal/entity"
	"cinderella/internal/server"
	"cinderella/internal/wire"
)

// span is one timed call at a layer boundary. Times are nanoseconds
// since the tracer started. Parent is the client call's span id when
// the call can be recovered from the arguments (updates and deletes by
// entity id, queries by attribute set), else 0.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory while on; the run writes them out at
// the end. A nil *tracer records nothing, which is the untraced run.
type tracer struct {
	on    atomic.Bool
	t0    time.Time
	next  atomic.Uint64
	mu    sync.Mutex
	spans []span

	// In-flight client calls by the key the store seam can see.
	callMu  sync.Mutex
	byID    map[cinderella.ID]uint64
	byQuery map[string][]uint64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), byID: map[cinderella.ID]uint64{}, byQuery: map[string][]uint64{}}
}

func (t *tracer) active() bool { return t != nil && t.on.Load() }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

func (t *tracer) record(s span) {
	if s.ID == 0 {
		s.ID = t.next.Add(1)
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// beginCall registers a client call so store spans can name it as
// their parent: by entity id (updates, deletes) or attribute set
// (queries). Inserts pass neither; the seam cannot recognise them.
func (t *tracer) beginCall(id cinderella.ID, attrs []string) uint64 {
	call := t.next.Add(1)
	t.callMu.Lock()
	if id != 0 {
		t.byID[id] = call
	}
	if attrs != nil {
		k := queryKey(attrs)
		t.byQuery[k] = append(t.byQuery[k], call)
	}
	t.callMu.Unlock()
	return call
}

func (t *tracer) endCall(call uint64, id cinderella.ID, attrs []string, name string, start, end time.Time) {
	t.callMu.Lock()
	if id != 0 && t.byID[id] == call {
		delete(t.byID, id)
	}
	if attrs != nil {
		k := queryKey(attrs)
		calls := t.byQuery[k]
		for i, c := range calls {
			if c == call {
				calls = append(calls[:i], calls[i+1:]...)
				break
			}
		}
		if len(calls) == 0 {
			delete(t.byQuery, k)
		} else {
			t.byQuery[k] = calls
		}
	}
	t.callMu.Unlock()
	t.record(span{ID: call, Name: name, Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0))})
}

func (t *tracer) parentByID(id cinderella.ID) uint64 {
	t.callMu.Lock()
	defer t.callMu.Unlock()
	return t.byID[id]
}

// parentByQuery names the client call only when exactly one call with
// this attribute set is in flight.
func (t *tracer) parentByQuery(attrs []string) uint64 {
	t.callMu.Lock()
	defer t.callMu.Unlock()
	if calls := t.byQuery[queryKey(attrs)]; len(calls) == 1 {
		return calls[0]
	}
	return 0
}

// queryKey identifies an attribute set whatever order it is sent in.
func queryKey(attrs []string) string {
	sorted := append([]string(nil), attrs...)
	sort.Strings(sorted)
	return strings.Join(sorted, "\x00")
}

// timed runs fn and records it as a span when the tracer is on. parent,
// when not nil, looks up the client call; it runs only when tracing, so
// untraced calls skip the lookup as well.
func (t *tracer) timed(name string, parent func() uint64, fn func()) {
	if !t.active() {
		fn()
		return
	}
	var par uint64
	if parent != nil {
		par = parent()
	}
	start := t.now()
	fn()
	t.record(span{Parent: par, Name: name, Start: start, End: t.now()})
}

// write dumps the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// sum totals the durations of the spans with a name, and counts them.
func (t *tracer) sum(name string) (total time.Duration, n int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		if s.Name == name {
			total += s.dur()
			n++
		}
	}
	return total, n
}

// mean is sum / count in microseconds, 0 without spans.
func (t *tracer) mean(name string) float64 {
	total, n := t.sum(name)
	if n == 0 {
		return 0
	}
	return us(total) / float64(n)
}

// tracedStore times the wire server's calls into the store.
type tracedStore struct {
	store
	tr *tracer
}

func (s *tracedStore) InsertEntity(e *entity.Entity) (id cinderella.ID, err error) {
	s.tr.timed("store.insert", nil, func() { id, err = s.store.InsertEntity(e) })
	return id, err
}

func (s *tracedStore) UpdateEntity(id cinderella.ID, e *entity.Entity) (ok bool, err error) {
	s.tr.timed("store.update", func() uint64 { return s.tr.parentByID(id) }, func() { ok, err = s.store.UpdateEntity(id, e) })
	return ok, err
}

func (s *tracedStore) Delete(id cinderella.ID) (ok bool, err error) {
	s.tr.timed("store.delete", func() uint64 { return s.tr.parentByID(id) }, func() { ok, err = s.store.Delete(id) })
	return ok, err
}

func (s *tracedStore) QueryEntities(attrs ...string) (recs []cinderella.EntityRecord) {
	s.tr.timed("store.query", func() uint64 { return s.tr.parentByQuery(attrs) }, func() { recs = s.store.QueryEntities(attrs...) })
	return recs
}

// tracedAcker times the wire server's wait in the group committer.
type tracedAcker struct {
	wire.Acker
	tr *tracer
}

func (a *tracedAcker) Commit(ctx context.Context, lsn uint64) (err error) {
	a.tr.timed("server.commit", nil, func() { err = a.Acker.Commit(ctx, lsn) })
	return err
}

// tracedSyncer times the committer's fsyncs.
type tracedSyncer struct {
	server.Syncer
	tr *tracer
}

func (s *tracedSyncer) SyncTo(lsn uint64) (err error) {
	s.tr.timed("wal.sync", nil, func() { err = s.Syncer.SyncTo(lsn) })
	return err
}
