package main

import (
	"time"

	"cinderella"
	"cinderella/internal/core"
	"cinderella/internal/entity"
	"cinderella/internal/obs"
	"cinderella/internal/table"
)

// layerMetrics derives the per-layer metrics of a traced run from the
// seam spans, the registry deltas and the core/table replays.
func layerMetrics(s *stack, in *inputs, tr *tracer, p *phase, r *report) map[string]float64 {
	d := r.delta
	c := func(k obs.Counter) float64 { return float64(d.c[k]) }
	docs, queries := float64(p.docs.Load()), float64(p.queries.Load())

	var client time.Duration
	var calls int
	for _, name := range []string{"client.insert_many", "client.insert", "client.update", "client.delete", "client.query"} {
		t, n := tr.sum(name)
		client += t
		calls += n
	}
	var storeT time.Duration
	for _, name := range []string{"store.insert", "store.update", "store.delete", "store.query"} {
		t, _ := tr.sum(name)
		storeT += t
	}
	commitT, _ := tr.sum("server.commit")
	self := client - storeT - commitT

	var ckpt time.Duration
	for _, iv := range p.checkpoints {
		ckpt += iv.end.Sub(iv.start)
	}
	stalled := 0
	for _, w := range p.writes {
		for _, iv := range p.checkpoints {
			if w.start.Before(iv.end) && iv.start.Before(w.end) {
				stalled++
				break
			}
		}
	}

	tableUs, coreUs := replay(s, in, p)

	return map[string]float64{
		"wire.self_us":                    ratio(us(self), float64(calls)),
		"wire.ops_per_frame":              ratio(c(obs.CWireOps), float64(d.histCount["cinderella_wire_batch_ops"])),
		"wire.bytes_per_op":               ratio(float64(d.wireBytes), docs+queries),
		"store.insert_us":                 tr.mean("store.insert"),
		"store.update_us":                 tr.mean("store.update"),
		"store.delete_us":                 tr.mean("store.delete"),
		"store.query_us":                  tr.mean("store.query"),
		"store.checkpoint_ms":             ratio(float64(ckpt)/float64(time.Millisecond), float64(len(p.checkpoints))),
		"store.checkpoint_stalled_writes": float64(stalled),
		"server.commit_wait_us":           tr.mean("server.commit"),
		"server.batch_ops":                ratio(c(obs.CGroupCommitOps), c(obs.CGroupCommits)),
		"wal.sync_us":                     tr.mean("wal.sync"),
		"wal.syncs_per_write":             ratio(c(obs.CWALSyncs), docs),
		"wal.append_us":                   d.histMeanUs("cinderella_wal_append_duration_seconds"),
		"wal.bytes_per_write":             ratio(c(obs.CWALAppendBytes), docs),
		"table.insert_us":                 tableUs,
		"table.query_us":                  d.histMeanUs("cinderella_query_duration_seconds"),
		"table.pruned_frac":               ratio(c(obs.CPartitionsPruned), c(obs.CPartitionsPruned)+c(obs.CPartitionsScanned)),
		"table.decoded_per_query":         ratio(c(obs.CScanDecoded), c(obs.CQueries)),
		"table.skipped_frac":              ratio(c(obs.CScanDecodeSkipped), c(obs.CScanDecoded)+c(obs.CScanDecodeSkipped)),
		"table.records_per_word":          ratio(c(obs.CEntitiesScanned), c(obs.CScanBitmapWords)),
		"core.place_us":                   coreUs,
		"core.ratings_per_insert":         ratio(c(obs.CRatings), c(obs.CInserts)+c(obs.CUpdates)), // updates re-rate too
		"core.splits_per_1k_inserts":      1000 * ratio(c(obs.CSplits), c(obs.CInserts)),
		"core.partitions":                 float64(r.partitions),
		"tier.frozen_partitions":          float64(s.frozen), // nothing thaws: no writes reach them
		"tier.cold_bytes_per_query":       ratio(float64(d.coldBytes), queries),
		"share.wire_self":                 ratio(float64(self), float64(client)),
		"share.store":                     ratio(float64(storeT), float64(client)),
		"share.commit_wait":               ratio(float64(commitT), float64(client)),
		"trace.overhead_pct":              overheadPct(p),
	}
}

// writeAttribution splits the write calls that overlapped no
// checkpoint into store time, commit wait and the remainder (codec,
// framing, loopback, client batching), as mean µs per write call.
func writeAttribution(tr *tracer, p *phase) (call, store, commit float64, n int) {
	var ckpts [][2]int64
	for _, iv := range p.checkpoints {
		ckpts = append(ckpts, [2]int64{int64(iv.start.Sub(tr.t0)), int64(iv.end.Sub(tr.t0))})
	}
	var callT, storeT, commitT time.Duration
	tr.mu.Lock()
	defer tr.mu.Unlock()
	for _, s := range tr.spans {
		stalled := false
		for _, c := range ckpts {
			if s.Start < c[1] && c[0] < s.End {
				stalled = true
				break
			}
		}
		if stalled {
			continue
		}
		switch s.Name {
		case "client.insert_many", "client.insert", "client.update", "client.delete":
			callT += s.dur()
			n++
		case "store.insert", "store.update", "store.delete":
			storeT += s.dur()
		case "server.commit":
			commitT += s.dur()
		}
	}
	if n == 0 {
		return 0, 0, 0, 0
	}
	return us(callT) / float64(n), us(storeT) / float64(n), us(commitT) / float64(n), n
}

// overheadPct compares the median call latency of traced and untraced
// chunks of the same run.
func overheadPct(p *phase) float64 {
	on, _ := pct(p.latencies(func(s sample) bool { return s.traced }), 0.5)
	off, _ := pct(p.latencies(func(s sample) bool { return !s.traced }), 0.5)
	return 100 * ratio(on-off, off)
}

// replay feeds the run's placement sequence — the preload, then the
// measured phase's acknowledged mutations in ack order — into bare
// table.Tables, then into bare core.Cinderellas, one per shard, with the
// store's w and B. It returns the mean time of one measured-phase
// insert in each; workloads without measured inserts report 0.
func replay(s *stack, in *inputs, p *phase) (tableUs, coreUs float64) {
	inserts := 0
	for _, o := range p.ops {
		if o.kind == 'i' {
			inserts++
		}
	}
	if inserts == 0 {
		return 0, 0
	}
	shardOf := func(cinderella.ID) int { return 0 }
	if s.sh != nil {
		shardOf = s.sh.ShardOf
	}
	cfg := core.Config{Weight: s.sp.w, MaxSize: s.sp.b}

	tables := make([]*table.Table, s.sp.shards)
	for i := range tables {
		tables[i] = table.New(table.Config{Partitioner: core.NewCinderella(cfg)})
	}
	tableT := replaySeq(s, in, p, shardOf, func(sh int, kind byte, id cinderella.ID, e *entity.Entity) {
		switch kind {
		case 'i':
			tables[sh].InsertWithID(id, e)
		case 'u':
			tables[sh].Update(id, e)
		case 'd':
			tables[sh].Delete(id)
		}
	})
	tables = nil // let the GC reclaim them during the core replay

	cores := make([]*core.Cinderella, s.sp.shards)
	for i := range cores {
		cores[i] = core.NewCinderella(cfg)
	}
	coreT := replaySeq(s, in, p, shardOf, func(sh int, kind byte, id cinderella.ID, e *entity.Entity) {
		ce := core.Entity{ID: id}
		if e != nil {
			ce.Syn, ce.Size = e.Synopsis(), e.Size()
		}
		switch kind {
		case 'i':
			cores[sh].Insert(ce)
		case 'u':
			cores[sh].Update(ce)
		case 'd':
			cores[sh].Delete(id)
		}
	})
	return us(tableT) / float64(inserts), us(coreT) / float64(inserts)
}

// replaySeq applies the preload and the phase's mutations through apply
// and returns the time spent in the phase's inserts.
func replaySeq(s *stack, in *inputs, p *phase, shardOf func(cinderella.ID) int,
	apply func(sh int, kind byte, id cinderella.ID, e *entity.Entity)) time.Duration {
	for i, id := range s.ids {
		apply(shardOf(id), 'i', id, in.ents[i])
	}
	var t time.Duration
	for _, o := range p.ops {
		var e *entity.Entity
		if o.kind != 'd' {
			e = in.ents[o.ent]
		}
		if o.kind != 'i' {
			apply(shardOf(o.id), o.kind, o.id, e)
			continue
		}
		t0 := time.Now()
		apply(shardOf(o.id), o.kind, o.id, e)
		t += time.Since(t0)
	}
	return t
}
