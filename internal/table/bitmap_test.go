package table

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"cinderella/internal/core"
	"cinderella/internal/entity"
	"cinderella/internal/storage"
	"cinderella/internal/synopsis"
)

// The brute-force oracle for the scan path: under the table's read lock
// it decodes every live record of every partition — hot segments through
// Segment.Scan, frozen ones through a private thaw — without consulting
// the presence matrix or any published snapshot. Each test query's
// expected results, QueryReport, and ordinary Stats charges are then
// derived from the decoded records alone.

type oracleRec struct {
	id core.EntityID
	e  *entity.Entity
	n  int64 // stored record length
}

type oraclePart struct {
	pid    core.PartitionID
	syn    *synopsis.Set // union of the decoded records' attribute sets
	pages  int
	frozen bool
	recs   []oracleRec // storage order
}

func lockedOracle(t *Table) []oraclePart {
	t.mu.RLock()
	defer t.mu.RUnlock()
	pids := make([]core.PartitionID, 0, len(t.segs)+len(t.cold))
	for pid := range t.segs {
		pids = append(pids, pid)
	}
	for pid := range t.cold {
		pids = append(pids, pid)
	}
	sortPIDs(pids)
	out := make([]oraclePart, len(pids))
	for i, pid := range pids {
		op := oraclePart{pid: pid, syn: synopsis.New(0)}
		seg, hot := t.segs[pid]
		if !hot {
			// Thaw builds a private copy; the table keeps the frozen one.
			seg, op.frozen = t.cold[pid].Thaw(), true
		}
		op.pages = seg.NumPages()
		seg.Scan(func(_ storage.RecordID, rec []byte) bool {
			id, e, err := decodeRecord(rec)
			if err != nil {
				panic(err)
			}
			op.syn.UnionWith(e.Synopsis())
			op.recs = append(op.recs, oracleRec{id: id, e: e, n: int64(len(rec))})
			return true
		})
		out[i] = op
	}
	return out
}

// oracleQuery is the oracle's answer to one query: survive prunes a
// partition, match filters a decoded entity.
type oracleQuery struct {
	res                []Result
	rep                QueryReport
	pages, bytes, recs int64 // ordinary read charges of the visit
	frozenPages        int64 // pages of touched frozen partitions
	frozenHits         bool  // a touched frozen partition holds a match
	// coldFree: every kernel candidate is a hit (Select's exact program),
	// so without a frozen hit no cold block may be inflated.
	coldFree bool
}

func (o oracleQuery) run(parts []oraclePart, survive func(oraclePart) bool, match func(*entity.Entity) bool) oracleQuery {
	o.rep.PartitionsTotal = len(parts)
	for _, op := range parts {
		if !survive(op) {
			o.rep.PartitionsPruned++
			continue
		}
		o.rep.PartitionsTouched++
		o.pages += int64(op.pages)
		if op.frozen {
			o.frozenPages += int64(op.pages)
		}
		for _, r := range op.recs {
			o.rep.EntitiesScanned++
			o.rep.BytesRead += r.n
			if match(r.e) {
				o.res = append(o.res, Result{ID: r.id, Entity: r.e})
				o.rep.EntitiesReturned++
				o.rep.BytesRelevant += r.n
				o.frozenHits = o.frozenHits || op.frozen
			}
		}
	}
	o.bytes, o.recs = o.rep.BytesRead, int64(o.rep.EntitiesScanned)
	o.coldFree = o.coldFree && !o.frozenHits
	return o
}

func oracleSelect(parts []oraclePart, q *synopsis.Set) oracleQuery {
	return oracleQuery{coldFree: true}.run(parts,
		func(op oraclePart) bool { return synopsis.Intersects(op.syn, q) },
		func(e *entity.Entity) bool { return synopsis.Intersects(e.Synopsis(), q) })
}

// oracleWhere reuses the table's zone-map pruning decision (zone maps
// are conservative and covered by zonemap_test); everything else comes
// from the decoded records.
func oracleWhere(tbl *Table, parts []oraclePart, preds []Pred) oracleQuery {
	need := predNeed(preds)
	return oracleQuery{}.run(parts,
		func(op oraclePart) bool {
			return synopsis.Subset(need, op.syn) && tbl.zonesOverlap(op.pid, preds)
		},
		func(e *entity.Entity) bool { return entityMatches(e, preds) })
}

func oracleAll(parts []oraclePart) oracleQuery {
	return oracleQuery{}.run(parts,
		func(oraclePart) bool { return true },
		func(*entity.Entity) bool { return true })
}

// ioColdDelta runs fn and returns the table's ordinary I/O counter
// deltas (pages, bytes, records read) plus the cold-tier deltas.
func ioColdDelta(stats *storage.Stats, fn func()) [5]int64 {
	p0, _, b0, _, r0 := stats.Snapshot()
	cp0, cb0 := stats.ColdSnapshot()
	fn()
	p1, _, b1, _, r1 := stats.Snapshot()
	cp1, cb1 := stats.ColdSnapshot()
	return [5]int64{p1 - p0, b1 - b0, r1 - r0, cp1 - cp0, cb1 - cb0}
}

func sameResults(a, b []Result) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].ID != b[i].ID || !a[i].Entity.Equal(b[i].Entity) {
			return false
		}
	}
	return true
}

// checkQuery runs one kernel query and holds it to the oracle: identical
// results in order, identical QueryReport, identical ordinary Stats
// charges, and cold-tier charges within what the touched frozen
// partitions can explain.
func checkQuery(t *testing.T, desc string, stats *storage.Stats, want oracleQuery, run func() ([]Result, QueryReport)) {
	t.Helper()
	var res []Result
	var rep QueryReport
	io := ioColdDelta(stats, func() { res, rep = run() })
	if !sameResults(res, want.res) {
		t.Fatalf("%s: kernel returned %d hits, oracle %d", desc, len(res), len(want.res))
	}
	if rep != want.rep {
		t.Fatalf("%s: report %+v, oracle %+v", desc, rep, want.rep)
	}
	if got, exp := [3]int64{io[0], io[1], io[2]}, [3]int64{want.pages, want.bytes, want.recs}; got != exp {
		t.Fatalf("%s: read charges (pages, bytes, records) %v, oracle %v", desc, got, exp)
	}
	if io[3] > want.frozenPages || io[4] != io[3]*storage.PageSize || (want.coldFree && io[3] != 0) {
		t.Fatalf("%s: cold charges %d pages / %d bytes over %d touched frozen pages (cold-free %v)",
			desc, io[3], io[4], want.frozenPages, want.coldFree)
	}
}

// checkAgainstOracle decodes the whole table once, then runs Select,
// SelectWhere, and ScanAll probes against it.
func checkAgainstOracle(t *testing.T, tbl *Table, stage string) {
	t.Helper()
	parts := lockedOracle(tbl)
	stats := tbl.Stats()
	for p := 0; p < 12; p++ {
		q := synopsis.Of(p%12, (p+5)%12)
		checkQuery(t, fmt.Sprintf("%s: select probe %d", stage, p), stats, oracleSelect(parts, q), func() ([]Result, QueryReport) {
			return tbl.SelectWithReport(q)
		})

		preds := []Pred{{Attr: p % 12, Op: CmpOp(p % 5), Value: entity.Int(int64(p * 9 % 100))}}
		if p%3 == 0 {
			preds = append(preds, Pred{Attr: (p + 3) % 12, Op: Ge, Value: entity.Int(0)})
		}
		checkQuery(t, fmt.Sprintf("%s: where probe %d", stage, p), stats, oracleWhere(tbl, parts, preds), func() ([]Result, QueryReport) {
			return tbl.SelectWhere(preds)
		})
	}
	all := oracleAll(parts)
	all.rep = QueryReport{} // ScanAll reports nothing
	checkQuery(t, stage+": scan-all", stats, all, func() ([]Result, QueryReport) {
		return tbl.ScanAll(), QueryReport{}
	})
}

// churn applies one round of deletes and updates to a random share of
// ids and returns the survivors. With hotOnly it only deletes, and only
// entities of hot partitions, so the round cannot thaw a frozen one (an
// update may re-place its entity anywhere).
func churn(tbl *Table, rng *rand.Rand, ids []core.EntityID, hotOnly bool) []core.EntityID {
	live := ids[:0]
	for _, id := range ids {
		if hotOnly && tbl.isFrozen(id) {
			live = append(live, id)
			continue
		}
		switch rng.Intn(4) {
		case 0:
			tbl.Delete(id)
			continue
		case 1:
			if !hotOnly {
				tbl.Update(id, randomTestEntity(rng))
			}
		}
		live = append(live, id)
	}
	return live
}

func (t *Table) isFrozen(id core.EntityID) bool {
	t.mu.RLock()
	defer t.mu.RUnlock()
	_, frozen := t.cold[t.rows[id].pid]
	return frozen
}

// freezeLargest freezes the n largest hot partitions.
func freezeLargest(tbl *Table, n int) []core.PartitionID {
	parts := tbl.Partitions()
	sort.SliceStable(parts, func(i, j int) bool { return parts[i].Entities > parts[j].Entities })
	var frozen []core.PartitionID
	for _, pv := range parts {
		if len(frozen) == n {
			break
		}
		if !pv.Cold && pv.Entities > 0 && tbl.FreezePartition(pv.ID) {
			frozen = append(frozen, pv.ID)
		}
	}
	return frozen
}

// TestBitmapDifferentialEquivalence is the differential property test:
// on several seeds, after churn, vacuum, freezes, a thaw, and churn
// again (leaving tombstones in hot, thawed, and vacuumed partitions and
// two frozen ones), Select, SelectWhere, and ScanAll through the kernel
// match the brute-force oracle in results, QueryReport, and Stats.
func TestBitmapDifferentialEquivalence(t *testing.T) {
	for _, seed := range []int64{3, 17, 99} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			tbl := New(Config{
				Partitioner: core.NewCinderella(core.Config{Weight: 0.35, MaxSize: 60}),
				Stats:       &storage.Stats{},
			})
			var ids []core.EntityID
			for i := 0; i < 600; i++ {
				ids = append(ids, tbl.Insert(randomTestEntity(rng)))
			}
			ids = churn(tbl, rng, ids, false)
			tbl.Vacuum()
			frozen := freezeLargest(tbl, 3)
			if len(frozen) < 3 {
				t.Fatalf("froze %d partitions, want 3", len(frozen))
			}
			tbl.ThawPartition(frozen[0])
			churn(tbl, rng, ids, true)
			if len(tbl.FrozenPartitions()) == 0 {
				t.Fatal("churn thawed every frozen partition; no probe crosses the cold tier")
			}
			checkAgainstOracle(t, tbl, "churned")
		})
	}
}

// TestBitmapScanConcurrentChurn scans captured snapshots through the
// kernel while writers churn the table with deletes, updates, vacuums,
// and tier transitions. On every snapshot partition the kernel must
// agree with a decode of every record of the same snapshot, and the
// race detector must stay quiet across the kernel's atomic word loads.
func TestBitmapScanConcurrentChurn(t *testing.T) {
	tbl := newTestTable(0.35, 50)
	rng := rand.New(rand.NewSource(5))
	var ids []core.EntityID
	var idMu sync.Mutex
	for i := 0; i < 400; i++ {
		ids = append(ids, tbl.Insert(randomTestEntity(rng)))
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		wrng := rand.New(rand.NewSource(6))
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			idMu.Lock()
			id := ids[wrng.Intn(len(ids))]
			switch i % 3 {
			case 0:
				tbl.Delete(id)
			case 1:
				tbl.Update(id, randomTestEntity(wrng))
			default:
				ids = append(ids, tbl.Insert(randomTestEntity(wrng)))
			}
			idMu.Unlock()
			if i%97 == 0 {
				tbl.Vacuum()
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			for _, pv := range tbl.Partitions() {
				if i%2 == 0 {
					tbl.FreezePartition(pv.ID)
				} else {
					tbl.ThawPartition(pv.ID)
				}
				break
			}
		}
	}()

	for i := 0; i < 300; i++ {
		q := synopsis.Of(i%12, (i+4)%12)
		prog := selectProgram(q)
		snap := tbl.capture()
		for _, ps := range snap.parts {
			if ps.syn == nil || !synopsis.Intersects(ps.syn, q) {
				continue
			}
			bm := scanPart(ps, prog, nil)
			all := scanPart(ps, storage.BitmapProgram{}, nil)
			var want []Result
			var wantBytes int64
			for _, r := range all.hits {
				if synopsis.Intersects(r.Entity.Synopsis(), q) {
					want = append(want, r)
				}
			}
			for _, r := range want {
				wantBytes += int64(len(encodeRecord(r.ID, r.Entity)))
			}
			if !sameResults(bm.hits, want) || all.decoded != all.scanned ||
				bm.scanned != all.scanned || bm.bytesRead != all.bytesRead ||
				bm.decoded != len(want) || bm.skipped != bm.scanned-len(want) ||
				bm.bytesHit != wantBytes || bm.bytesSkip != bm.bytesRead-wantBytes {
				t.Errorf("snapshot %d partition %d: kernel scan disagrees with a full decode", i, ps.pid)
			}
			releaseScanScratches([]partScan{bm, all})
		}
		if t.Failed() {
			break
		}
	}
	close(stop)
	wg.Wait()
}

// TestBitmapScanSteadyStateZeroAlloc enforces the pooled-scratch
// guarantee: once the pool is warm, a bitmap partition scan that
// decodes nothing performs zero heap allocations.
func TestBitmapScanSteadyStateZeroAlloc(t *testing.T) {
	tbl := newTestTable(0.5, 5000)
	for i := 0; i < 2000; i++ {
		tbl.Insert(mkEnt(i%7, 7+i%5))
	}
	snap := tbl.capture()
	var ps *partSnap
	for _, p := range snap.parts {
		if p.view.NumRecords() > 0 {
			ps = p
			break
		}
	}
	if ps == nil {
		t.Fatal("no populated partition")
	}

	q := synopsis.Of(999) // matches nothing: pure kernel, no decodes
	prog := selectProgram(q)
	parts := make([]partScan, 1)
	run := func() {
		sc := scanPart(ps, prog, nil)
		if sc.decoded != 0 {
			t.Fatalf("no-match scan decoded %d records", sc.decoded)
		}
		parts[0] = sc
		releaseScanScratches(parts)
	}
	run() // warm the pool and the scratch buffers

	if n := testing.AllocsPerRun(200, run); n != 0 {
		t.Fatalf("steady-state bitmap scan allocates %.1f times per run, want 0", n)
	}
}
