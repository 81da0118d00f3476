package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"

	"cinderella"
	"cinderella/internal/datagen"
	"cinderella/internal/entity"
	"cinderella/internal/synopsis"
	"cinderella/internal/workload"
)

// inputs is everything a run feeds the program, generated before the
// store opens. ents[:preload] are loaded during set-up;
// the rest are the pool the measured phase draws new documents from.
type inputs struct {
	names   []string // datagen attribute id -> name
	ents    []*entity.Entity
	preload int

	mix  []query    // the measured phase's query candidates
	reps []query    // Definition 1's 30 representative queries
	pick []int      // query workload: index into mix per draw; clients interleave
	rng  *rand.Rand // mixed workload: op kinds and id choice
}

// query is one attribute-set query of the paper's workload.
type query struct {
	attrs []string
	syn   *synopsis.Set // in datagen attribute ids
}

// universeSeed fixes the generated data set and the preloaded store, the
// way the paper works on one DBpedia extract: the attribute classes,
// their correlations, the documents and the preload order are the same
// for every run. The run's seed orders the documents the measured phase
// sends and draws the queries and the mixed workload's calls.
const universeSeed = 1

func genInputs(sp *spec, seed int64) (*inputs, error) {
	ds, err := datagen.Generate(datagen.Config{NumEntities: sp.preload + sp.pool, Seed: universeSeed})
	if err != nil {
		return nil, fmt.Errorf("generating entities: %w", err)
	}
	in := &inputs{ents: ds.Entities, preload: sp.preload}
	for i := 0; i < ds.Dict.Len(); i++ {
		in.names = append(in.names, ds.Dict.Name(i))
	}

	// Synopsis caches lazily; computing every one here keeps the
	// measured phase's concurrent readers of in.ents read-only.
	for _, e := range in.ents {
		e.Synopsis()
	}
	syns := make([]*synopsis.Set, sp.preload)
	for i := range syns {
		syns[i] = in.ents[i].Synopsis()
	}
	all := workload.Generate(syns, 20)
	workload.Measure(all, syns)
	for _, q := range workload.Representatives(all, 10, 3) {
		in.reps = append(in.reps, in.toQuery(q))
	}
	for _, q := range all {
		if q.Selectivity > 0 && q.Selectivity <= sp.maxSel {
			in.mix = append(in.mix, in.toQuery(q))
		}
	}
	if len(in.mix) == 0 {
		return nil, fmt.Errorf("no query with selectivity in (0, %g]", sp.maxSel)
	}
	// The Zipf ranks follow a fixed order of the attribute sets, so every
	// seed favours the same queries and only the draws differ.
	sort.Slice(in.mix, func(i, j int) bool { return rankKey(in.mix[i].attrs) < rankKey(in.mix[j].attrs) })
	rng := rand.New(rand.NewSource(seed))
	pool := in.ents[sp.preload:]
	rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	if sp.name == "query" {
		z := rand.NewZipf(rng, zipfS, 1, uint64(len(in.mix)-1))
		in.pick = make([]int, draws)
		for i := range in.pick {
			in.pick[i] = int(z.Uint64())
		}
	}
	in.rng = rng
	return in, nil
}

// rankKey is a fixed pseudo-random key of an attribute set.
func rankKey(attrs []string) uint64 {
	h := fnv.New64a()
	for _, a := range attrs {
		h.Write([]byte(a))
		h.Write([]byte{0})
	}
	return mix64(h.Sum64())
}

func (in *inputs) toQuery(q workload.Query) query {
	ids := q.Attrs.Elements(nil)
	attrs := make([]string, len(ids))
	for i, a := range ids {
		attrs[i] = in.names[a]
	}
	sort.Strings(attrs)
	return query{attrs: attrs, syn: q.Attrs}
}

// doc renders generated entity i as the document a client sends.
func (in *inputs) doc(i int) cinderella.Doc {
	e := in.ents[i]
	d := make(cinderella.Doc, e.NumAttrs())
	for _, f := range e.Fields() {
		name := in.names[f.Attr]
		switch f.Value.Kind() {
		case entity.KindInt:
			d[name] = f.Value.AsInt()
		case entity.KindFloat:
			d[name] = f.Value.AsFloat()
		case entity.KindString:
			d[name] = f.Value.AsString()
		}
	}
	return d
}

// relevant is the brute-force oracle: entity i answers q iff it has at
// least one queried attribute.
func (in *inputs) relevant(i int, q *query) bool {
	return synopsis.Intersects(in.ents[i].Synopsis(), q.syn)
}

// docEqual reports whether a stored document equals the one sent.
func docEqual(a, b cinderella.Doc) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if w, ok := b[k]; !ok || w != v {
			return false
		}
	}
	return true
}

// idSet is an order-independent digest of a set of ids: a count plus a
// sum of mixed ids, so a result can be checked against the oracle
// without sorting or storing either side.
type idSet struct {
	n   int
	sum uint64
}

func (s *idSet) add(id cinderella.ID) {
	s.n++
	s.sum += mix64(uint64(id))
}

// mix64 is the splitmix64 finalizer.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
