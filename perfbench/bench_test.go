package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"cinderella"
)

// smoke shrinks a workload to test size.
func smoke(t *testing.T, name string) *spec {
	t.Helper()
	sp := specs()[name]
	sp.preload, sp.setups = 2000, 1
	switch name {
	case "ingest":
		sp.pool = 20000
	case "mixed":
		sp.pool, sp.rate, sp.checkpointEvery = 5000, 200, 50
	}
	return sp
}

type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(specs()) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(bf.Workloads), len(specs()))
	}
	for _, w := range bf.Workloads {
		for _, trace := range []bool{false, true} {
			sp := smoke(t, w.Name)
			r, err := run(sp, options{seed: 3, seconds: 1, trace: trace, dataDir: t.TempDir(), traceOut: t.TempDir()})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			sum := r.summary()
			if !sum.Correct || sum.Attempted < 1 {
				t.Fatalf("%s trace=%v: correct=%v attempted=%d errors %v", w.Name, trace, sum.Correct, sum.Attempted, r.p.errs)
			}
			if w.Name == "ingest" {
				if got, want := r.p.docs.Load(), int64(ingestDocs(sp, 1)); got != want {
					t.Errorf("ingest trace=%v: sent %d documents, want the fixed %d", trace, got, want)
				}
			}
			want := bf.EndToEnd
			if trace {
				want = bf.PerLayer
			}
			if len(sum.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json names %d", w.Name, trace, len(sum.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := sum.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", w.Name, trace, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s trace=%v: metric %s unit %q, BENCHMARK.json says %q", w.Name, trace, m.Name, got.Unit, m.Unit)
				case !trace && got.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.Name, m.Name, got.Value)
				}
			}
		}
	}
}

// openSmoke sets up a test-size stack for direct checks.
func openSmoke(t *testing.T, name string) (*stack, *inputs) {
	t.Helper()
	sp := smoke(t, name)
	in, err := genInputs(sp, 5)
	if err != nil {
		t.Fatal(err)
	}
	s, _, err := openStack(sp, in, t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.close() })
	return s, in
}

func TestQueryCheckRejectsOracleMissingAnID(t *testing.T) {
	s, in := openSmoke(t, "query")
	want := oracle(in, s.ids)
	p := &phase{start: time.Now()}
	runQuery(s, in, want, nil, p, time.Now().Add(300*time.Millisecond))
	if !p.correct() || p.queries.Load() == 0 {
		t.Fatalf("clean run: correct=%v queries=%d errors %v", p.correct(), p.queries.Load(), p.errs)
	}
	// Drop one relevant id from every query's oracle.
	for k := range in.mix {
		for i, id := range s.ids {
			if in.relevant(i, &in.mix[k]) {
				want[k].n--
				want[k].sum -= mix64(uint64(id))
				break
			}
		}
	}
	p = &phase{start: time.Now()}
	runQuery(s, in, want, nil, p, time.Now().Add(300*time.Millisecond))
	if p.correct() {
		t.Fatal("a query oracle missing an id went unnoticed")
	}
}

// phantom is an id the store never assigned.
const phantom = cinderella.ID(1) << 40

func TestMixedModelRejectsPhantomID(t *testing.T) {
	s, in := openSmoke(t, "mixed")
	m := newModel(in, s.ids)
	p := &phase{}
	checkModel(s.st, m, p, "clean")
	if !p.correct() {
		t.Fatalf("clean model rejected: %v", p.errs)
	}

	// A phantom holding a document relevant to query 0: the Get check
	// and the query check must both notice it.
	q := &in.mix[0]
	ent := -1
	for i := range in.ents {
		if in.relevant(i, q) {
			ent = i
			break
		}
	}
	m.setLive(phantom, ent)
	checkModel(s.st, m, p, "phantom")
	if p.correct() {
		t.Error("Get check missed a phantom id in the model")
	}

	p = &phase{}
	var got []cinderella.ID
	for _, r := range s.st.QueryEntities(q.attrs...) {
		got = append(got, r.ID)
	}
	m.mu.Lock()
	m.seq++
	s0 := m.seq
	m.mu.Unlock()
	m.checkQuery(q, s0, got, p)
	if p.correct() {
		t.Error("query check missed a phantom relevant id in the model")
	}
}

func TestIngestCheckRejectsPhantomAck(t *testing.T) {
	s, in := openSmoke(t, "ingest")
	p := &phase{}
	checkIngest(s, in, p)
	if !p.correct() {
		t.Fatalf("clean ingest rejected: %v", p.errs)
	}
	p.ops = append(p.ops, op{kind: 'i', id: phantom, ent: in.preload})
	checkIngest(s, in, p)
	if p.correct() {
		t.Error("ingest check missed a phantom acked id")
	}
}
