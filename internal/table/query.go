package table

import (
	"strconv"
	"strings"

	"cinderella/internal/core"
	"cinderella/internal/entity"
	"cinderella/internal/obs"
	"cinderella/internal/storage"
	"cinderella/internal/synopsis"
)

// Result is one query hit: the entity id and a decoded copy.
type Result struct {
	ID     core.EntityID
	Entity *entity.Entity
}

// QueryReport describes one query execution for experiments and the
// streaming EFFICIENCY estimator. The json tags are the service-layer
// wire format (GET /v1/query-report).
type QueryReport struct {
	PartitionsTotal   int `json:"partitions_total"`
	PartitionsTouched int `json:"partitions_touched"`
	PartitionsPruned  int `json:"partitions_pruned"`
	EntitiesScanned   int `json:"entities_scanned"`
	EntitiesReturned  int `json:"entities_returned"`
	// BytesRead is the live record bytes of every record visited in the
	// non-pruned partitions — Definition 1's per-query denominator with
	// SIZE() in bytes. BytesRelevant is the subset belonging to returned
	// (relevant) records, the matching numerator.
	BytesRead     int64 `json:"bytes_read"`
	BytesRelevant int64 `json:"bytes_relevant"`
}

// Select returns all entities instantiating at least one of the given
// attributes — the paper's
//
//	SELECT … WHERE a1 IS NOT NULL OR a2 IS NOT NULL …
//
// query shape. Partitions whose attribute synopsis is disjoint from the
// query are pruned without touching their data.
func (t *Table) Select(attrs ...int) []Result {
	res, _ := t.SelectWithReport(synopsis.Of(attrs...))
	return res
}

// SelectSynopsis runs Select for a prepared query synopsis.
func (t *Table) SelectSynopsis(q *synopsis.Set) []Result {
	res, _ := t.SelectWithReport(q)
	return res
}

// SelectWithReport runs the query and also returns execution counters.
// It runs against a captured consistent cut and never takes the table
// lock. Surviving partitions are scanned by the worker pool (see
// parallel.go); results arrive in ascending partition-id order,
// identical to a serial scan.
func (t *Table) SelectWithReport(q *synopsis.Set) ([]Result, QueryReport) {
	return t.SelectSpanned(q, t.observer().StartQuery(obs.KindSelect))
}

// SelectSpanned runs SelectWithReport filling an externally created
// query span — a shard fan-out child or a forced trace. sp may be nil
// (heat accounting still happens). Root spans are retained by the
// registry in FinishQuery; child spans by their parent's coordinator.
func (t *Table) SelectSpanned(q *synopsis.Set, sp *obs.QuerySpan) ([]Result, QueryReport) {
	if sp.WantDetail() {
		sp.SetQuery(t.describeSelect(q))
	}
	// Record the query's attribute shape into the recent-mix ring; the
	// reclusterer derives its workload-relevance term from it.
	t.observer().NoteQueryShape(q)
	start := t.obsStart()
	snap := t.capture()

	var rep QueryReport
	rep.PartitionsTotal = len(snap.parts)
	survivors := make([]*partSnap, 0, len(snap.parts))
	for _, ps := range snap.parts {
		if ps.syn == nil || !synopsis.Intersects(ps.syn, q) {
			rep.PartitionsPruned++
			sp.Prune(uint64(ps.pid), obs.PruneSynopsisDisjoint)
			continue
		}
		survivors = append(survivors, ps)
	}
	rep.PartitionsTouched = len(survivors)

	parts := make([]partScan, len(survivors))
	prog := selectProgram(q)
	runTimedScans(parts, sp.TimeScans(), func(i int) partScan {
		return scanPart(survivors[i], prog, nil)
	})
	out := mergeScans(parts, &rep)

	ns := lapNs(start)
	t.noteQuery(rep, ns)
	t.noteScans(sp, parts, rep, ns)
	releaseScanScratches(parts)
	return out, rep
}

// ScanAll returns every live entity (a full table scan over all
// partitions, no pruning possible). Partitions are scanned in parallel
// like Select, lock-free against a snapshot; the result order is
// ascending partition id, then storage order within the partition.
func (t *Table) ScanAll() []Result {
	return t.ScanAllSpanned(t.observer().StartQuery(obs.KindScanAll))
}

// ScanAllSpanned runs ScanAll filling an externally created query span
// (sp may be nil). Full scans feed the heat map and span trees but, as
// before, do not enter the query counters or the EFFICIENCY estimator —
// they have no pruning decision to measure.
func (t *Table) ScanAllSpanned(sp *obs.QuerySpan) []Result {
	if sp.WantDetail() {
		sp.SetQuery("scan-all")
	}
	start := t.obsStart()
	snap := t.capture()
	parts := make([]partScan, len(snap.parts))
	runTimedScans(parts, sp.TimeScans(), func(i int) partScan {
		return scanPart(snap.parts[i], storage.BitmapProgram{}, nil)
	})
	rep := QueryReport{PartitionsTotal: len(snap.parts), PartitionsTouched: len(snap.parts)}
	out := mergeScans(parts, &rep)
	t.noteScans(sp, parts, rep, lapNs(start))
	releaseScanScratches(parts)
	return out
}

// describeSelect renders the query for span trees: attribute names when
// the table has a dictionary, raw ids otherwise. Built only when a span
// wants detail — never on the unsampled hot path.
func (t *Table) describeSelect(q *synopsis.Set) string {
	var b strings.Builder
	b.WriteString("select(")
	first := true
	q.ForEach(func(id int) {
		if !first {
			b.WriteByte(',')
		}
		first = false
		b.WriteString(t.attrName(id))
	})
	b.WriteByte(')')
	return b.String()
}

// describeWhere renders a predicate conjunction for span trees.
func (t *Table) describeWhere(preds []Pred) string {
	var b strings.Builder
	b.WriteString("where(")
	for i, p := range preds {
		if i > 0 {
			b.WriteString(" AND ")
		}
		b.WriteString(t.attrName(p.Attr))
		b.WriteString(p.Op.String())
		b.WriteString(p.Value.String())
	}
	b.WriteByte(')')
	return b.String()
}

func (t *Table) attrName(id int) string {
	if t.dict != nil && id >= 0 && id < t.dict.Len() {
		return t.dict.Name(id)
	}
	return "#" + strconv.Itoa(id)
}
