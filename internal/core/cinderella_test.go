package core

import (
	"math/rand"
	"testing"

	"cinderella/internal/synopsis"
)

func cfg(w float64, b int64) Config { return Config{Weight: w, MaxSize: b} }

func ent(id EntityID, attrs ...int) Entity {
	return Entity{ID: id, Syn: synopsis.Of(attrs...), Size: int64(8 * len(attrs))}
}

func TestInsertFirstEntityCreatesPartition(t *testing.T) {
	c := NewCinderella(cfg(0.5, 100))
	pid := c.Insert(ent(1, 1, 2, 3))
	if pid == NoPartition {
		t.Fatal("no partition assigned")
	}
	if c.NumPartitions() != 1 {
		t.Fatalf("NumPartitions = %d", c.NumPartitions())
	}
	ps := c.Partitions()
	if ps[0].Entities != 1 || !ps[0].Synopsis.Equal(synopsis.Of(1, 2, 3)) {
		t.Fatalf("partition info = %+v", ps[0])
	}
	if got, ok := c.Locate(1); !ok || got != pid {
		t.Fatalf("Locate = %v,%v", got, ok)
	}
}

func TestInsertZeroIDPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Insert(id=0) did not panic")
		}
	}()
	NewCinderella(cfg(0.5, 10)).Insert(Entity{ID: 0, Syn: synopsis.Of(1)})
}

func TestInsertDuplicatePanics(t *testing.T) {
	c := NewCinderella(cfg(0.5, 10))
	c.Insert(ent(1, 1))
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate Insert did not panic")
		}
	}()
	c.Insert(ent(1, 2))
}

func TestNewCinderellaInvalidConfigPanics(t *testing.T) {
	cases := []Config{
		{Weight: -0.1, MaxSize: 10},
		{Weight: 1.1, MaxSize: 10},
		{Weight: 0.5, MaxSize: 0},
		{Weight: 0.5, MaxSize: 10, SizeMode: 7},
	}
	for i, bad := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: invalid config accepted", i)
				}
			}()
			NewCinderella(bad)
		}()
	}
}

func TestHomogeneousEntitiesShareAPartition(t *testing.T) {
	c := NewCinderella(cfg(0.5, 1000))
	for i := EntityID(1); i <= 50; i++ {
		c.Insert(ent(i, 1, 2, 3))
	}
	if c.NumPartitions() != 1 {
		t.Fatalf("NumPartitions = %d, want 1", c.NumPartitions())
	}
	if c.Partitions()[0].Entities != 50 {
		t.Fatalf("Entities = %d", c.Partitions()[0].Entities)
	}
}

func TestDisjointEntitiesGetSeparatePartitions(t *testing.T) {
	c := NewCinderella(cfg(0.5, 1000))
	c.Insert(ent(1, 1, 2, 3))
	c.Insert(ent(2, 10, 11, 12))
	c.Insert(ent(3, 20, 21, 22))
	if c.NumPartitions() != 3 {
		t.Fatalf("NumPartitions = %d, want 3", c.NumPartitions())
	}
}

func TestWeightZeroYieldsPerfectHomogeneity(t *testing.T) {
	// Paper: "In the extreme case of w = 0 all created partitions are
	// completely homogeneous."
	c := NewCinderella(cfg(0, 1000))
	rng := rand.New(rand.NewSource(5))
	sigs := [][]int{{1, 2}, {1, 2, 3}, {4, 5}, {1}, {2, 3, 4, 5}}
	for i := EntityID(1); i <= 200; i++ {
		c.Insert(ent(i, sigs[rng.Intn(len(sigs))]...))
	}
	if got := c.NumPartitions(); got != len(sigs) {
		t.Fatalf("NumPartitions = %d, want %d", got, len(sigs))
	}
	// Every partition synopsis must exactly match each member's synopsis:
	// sparseness 0.
	for _, p := range c.Partitions() {
		if p.Entities == 0 {
			t.Fatalf("empty partition %d in catalog", p.ID)
		}
	}
}

func TestSimilarEntitiesClusterDespiteNoise(t *testing.T) {
	// Camera-ish entities share a core schema with per-entity extras; they
	// should co-locate under a medium weight rather than each opening a
	// partition.
	c := NewCinderella(cfg(0.5, 1000))
	for i := EntityID(1); i <= 30; i++ {
		attrs := []int{1, 2, 3, 4, 5}
		attrs = append(attrs, 100+int(i%7)) // one uncommon attribute each
		c.Insert(ent(i, attrs...))
	}
	if got := c.NumPartitions(); got != 1 {
		t.Fatalf("NumPartitions = %d, want 1 (noise split the cluster)", got)
	}
}

func TestSplitOnCapacity(t *testing.T) {
	c := NewCinderella(cfg(0.5, 4))
	// Two clearly different schemas arriving interleaved; capacity 4
	// forces a split on the 5th entity even if they all co-locate first.
	c.Insert(ent(1, 1, 2))
	c.Insert(ent(2, 1, 2))
	c.Insert(ent(3, 1, 2))
	c.Insert(ent(4, 1, 2))
	before := c.Stats().Splits
	c.Insert(ent(5, 1, 2)) // exceeds B=4 → split
	if c.Stats().Splits != before+1 {
		t.Fatalf("Splits = %d, want %d", c.Stats().Splits, before+1)
	}
	// All five entities remain placed, none lost.
	total := 0
	for _, p := range c.Partitions() {
		total += p.Entities
		if p.Size > 4 {
			t.Fatalf("partition %d over capacity: %d", p.ID, p.Size)
		}
	}
	if total != 5 {
		t.Fatalf("total entities = %d, want 5", total)
	}
}

func TestSplitSeparatesSchemas(t *testing.T) {
	// Mixed partition of two schemas at capacity: the split should pull
	// the schemas apart (starters are the most-different pair).
	// Two schemas overlapping in {1,2} co-locate at w = 0.9 until the
	// partition fills; the split must then pull them apart because the
	// starters are the most-different pair.
	c := NewCinderella(cfg(0.9, 8))
	id := EntityID(1)
	for i := 0; i < 4; i++ {
		c.Insert(ent(id, 1, 2, 3, 4))
		id++
		c.Insert(ent(id, 1, 2, 7, 8))
		id++
	}
	if c.NumPartitions() != 1 {
		t.Fatalf("setup: schemas did not co-locate, %d partitions", c.NumPartitions())
	}
	c.Insert(ent(id, 1, 2, 3, 4))
	if c.Stats().Splits == 0 {
		t.Fatal("expected a split")
	}
	// After the split, at least one partition must be schema-pure.
	pure := 0
	for _, p := range c.Partitions() {
		if p.Synopsis.Equal(synopsis.Of(1, 2, 3, 4)) || p.Synopsis.Equal(synopsis.Of(1, 2, 7, 8)) {
			pure++
		}
	}
	if pure == 0 {
		t.Fatalf("split did not separate schemas: %+v", c.Partitions())
	}
}

func TestSplitPreservesAllEntities(t *testing.T) {
	c := NewCinderella(cfg(0.5, 10))
	rng := rand.New(rand.NewSource(99))
	n := 500
	for i := 1; i <= n; i++ {
		attrs := []int{rng.Intn(5), 5 + rng.Intn(5), 10 + rng.Intn(10)}
		c.Insert(ent(EntityID(i), attrs...))
	}
	total := 0
	for _, p := range c.Partitions() {
		total += p.Entities
	}
	if total != n {
		t.Fatalf("entities after many splits = %d, want %d", total, n)
	}
	for i := 1; i <= n; i++ {
		if _, ok := c.Locate(EntityID(i)); !ok {
			t.Fatalf("entity %d lost", i)
		}
	}
}

func TestSingletonOversizeSplit(t *testing.T) {
	// Capacity 1: every second entity forces a split of a singleton
	// partition; the algorithm must not panic and must keep both entities.
	c := NewCinderella(cfg(0.5, 1))
	c.Insert(ent(1, 1, 2))
	c.Insert(ent(2, 1, 2))
	total := 0
	for _, p := range c.Partitions() {
		total += p.Entities
		if p.Entities > 1 {
			t.Fatalf("partition over entity capacity: %+v", p)
		}
	}
	if total != 2 {
		t.Fatalf("total = %d, want 2", total)
	}
}

func TestDeleteRemovesEntity(t *testing.T) {
	c := NewCinderella(cfg(0.5, 100))
	c.Insert(ent(1, 1, 2))
	c.Insert(ent(2, 1, 2))
	c.Delete(1)
	if _, ok := c.Locate(1); ok {
		t.Fatal("deleted entity still located")
	}
	if c.Partitions()[0].Entities != 1 {
		t.Fatalf("Entities = %d", c.Partitions()[0].Entities)
	}
	c.Delete(1) // no-op
	c.Delete(99)
	if c.Stats().Deletes != 1 {
		t.Fatalf("Deletes = %d, want 1", c.Stats().Deletes)
	}
}

func TestDeleteDropsEmptyPartition(t *testing.T) {
	c := NewCinderella(cfg(0.5, 100))
	c.Insert(ent(1, 1, 2))
	c.Insert(ent(2, 50, 51))
	if c.NumPartitions() != 2 {
		t.Fatalf("NumPartitions = %d", c.NumPartitions())
	}
	c.Delete(1)
	if c.NumPartitions() != 1 {
		t.Fatalf("empty partition not dropped: %d", c.NumPartitions())
	}
}

func TestDeleteShrinksSynopsis(t *testing.T) {
	// Synopses are exact (refcounted), so removing the only entity with an
	// attribute removes the attribute from the partition synopsis — keeps
	// pruning sound after deletions.
	c := NewCinderella(cfg(0.9, 100))
	c.Insert(ent(1, 1, 2))
	c.Insert(ent(2, 1, 2, 3))
	if c.NumPartitions() != 1 {
		t.Fatalf("setup: NumPartitions = %d", c.NumPartitions())
	}
	c.Delete(2)
	if !c.Partitions()[0].Synopsis.Equal(synopsis.Of(1, 2)) {
		t.Fatalf("synopsis after delete = %v", c.Partitions()[0].Synopsis)
	}
}

func TestUpdateInPlace(t *testing.T) {
	c := NewCinderella(cfg(0.5, 100))
	p1 := c.Insert(ent(1, 1, 2, 3))
	c.Insert(ent(2, 1, 2, 3))
	// Minor change: still fits best where it is.
	got := c.Update(ent(1, 1, 2, 3, 4))
	if got != p1 {
		t.Fatalf("update moved entity: %v -> %v", p1, got)
	}
	if c.Stats().UpdateMoves != 0 {
		t.Fatalf("UpdateMoves = %d, want 0", c.Stats().UpdateMoves)
	}
	// Synopsis reflects the new attribute.
	if !c.Partitions()[0].Synopsis.Contains(4) {
		t.Fatal("partition synopsis missing updated attribute")
	}
}

func TestUpdateMovesOnSchemaChange(t *testing.T) {
	c := NewCinderella(cfg(0.5, 100))
	c.Insert(ent(1, 1, 2, 3))
	c.Insert(ent(2, 1, 2, 3))
	p2 := c.Insert(ent(3, 50, 51, 52))
	// Entity 1 mutates into the other schema: must move to p2.
	got := c.Update(ent(1, 50, 51, 52))
	if got != p2 {
		t.Fatalf("update placed entity in %v, want %v", got, p2)
	}
	if c.Stats().UpdateMoves != 1 {
		t.Fatalf("UpdateMoves = %d, want 1", c.Stats().UpdateMoves)
	}
}

func TestUpdateUnknownInserts(t *testing.T) {
	c := NewCinderella(cfg(0.5, 100))
	pid := c.Update(ent(1, 1, 2))
	if pid == NoPartition {
		t.Fatal("Update of unknown entity did not insert")
	}
	if _, ok := c.Locate(1); !ok {
		t.Fatal("entity not present after Update-insert")
	}
}

func TestUpdateVacatedPartitionDropped(t *testing.T) {
	c := NewCinderella(cfg(0.5, 100))
	c.Insert(ent(1, 1, 2, 3))
	c.Insert(ent(2, 50, 51))
	c.Insert(ent(3, 50, 51))
	c.Update(ent(1, 50, 51))
	if c.NumPartitions() != 1 {
		t.Fatalf("vacated partition not dropped: %d", c.NumPartitions())
	}
}

func TestMoveListenerSeesAllPlacements(t *testing.T) {
	c := NewCinderella(cfg(0.5, 4))
	shadow := make(map[EntityID]PartitionID)
	live := make(map[PartitionID]bool)
	c.SetMoveListener(func(pl Placement) {
		if pl.Entity == 0 {
			// Partition drop signal.
			if !live[pl.From] {
				t.Fatalf("drop of unknown partition %d", pl.From)
			}
			delete(live, pl.From)
			return
		}
		live[pl.To] = true
		shadow[pl.Entity] = pl.To
	})
	rng := rand.New(rand.NewSource(3))
	for i := 1; i <= 300; i++ {
		c.Insert(ent(EntityID(i), rng.Intn(4), 4+rng.Intn(4)))
	}
	// The shadow built purely from listener events must agree with Locate.
	for i := 1; i <= 300; i++ {
		want, _ := c.Locate(EntityID(i))
		if shadow[EntityID(i)] != want {
			t.Fatalf("entity %d: listener says %v, Locate says %v", i, shadow[EntityID(i)], want)
		}
	}
	// Live partition set must agree with the catalog.
	if len(live) != c.NumPartitions() {
		t.Fatalf("listener live = %d, catalog = %d", len(live), c.NumPartitions())
	}
}

func TestStatsCounters(t *testing.T) {
	c := NewCinderella(cfg(0.5, 2))
	c.Insert(ent(1, 1))
	c.Insert(ent(2, 1))
	c.Insert(ent(3, 1)) // forces split
	c.Delete(1)
	st := c.Stats()
	if st.Inserts != 3 || st.Deletes != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Splits == 0 {
		t.Fatal("split not counted")
	}
	if st.RatedPairs == 0 {
		t.Fatal("no pairs rated")
	}
}

func TestSmallerWeightMorePartitions(t *testing.T) {
	// Paper Figure 7(a): lower weight → more partitions.
	counts := make([]int, 0, 3)
	for _, w := range []float64{0.1, 0.5, 0.9} {
		c := NewCinderella(cfg(w, 5000))
		rng := rand.New(rand.NewSource(11))
		for i := 1; i <= 2000; i++ {
			attrs := []int{0, 1} // common core
			for a := 2; a < 30; a++ {
				if rng.Float64() < 0.15 {
					attrs = append(attrs, a)
				}
			}
			c.Insert(ent(EntityID(i), attrs...))
		}
		counts = append(counts, c.NumPartitions())
	}
	if !(counts[0] >= counts[1] && counts[1] >= counts[2]) {
		t.Fatalf("partition counts not decreasing in w: %v", counts)
	}
	if counts[0] == counts[2] {
		t.Fatalf("weight had no effect: %v", counts)
	}
}

func TestStarterPolicies(t *testing.T) {
	for _, pol := range []StarterPolicy{StarterIncremental, StarterExact, StarterRandom} {
		c := NewCinderella(Config{Weight: 0.5, MaxSize: 6, StarterPolicy: pol, RandSeed: 7})
		rng := rand.New(rand.NewSource(13))
		for i := 1; i <= 300; i++ {
			c.Insert(ent(EntityID(i), rng.Intn(6), 6+rng.Intn(6)))
		}
		total := 0
		for _, p := range c.Partitions() {
			total += p.Entities
			if p.Size > 6 {
				t.Fatalf("policy %d: partition over capacity", pol)
			}
		}
		if total != 300 {
			t.Fatalf("policy %d: total = %d, want 300", pol, total)
		}
	}
}

func TestDeletedStarterRepairedOnSplit(t *testing.T) {
	c := NewCinderella(cfg(0.9, 6))
	for i := 1; i <= 6; i++ {
		c.Insert(ent(EntityID(i), 1, 2, i+10))
	}
	// Delete whatever entities currently hold the starter slots.
	ps := c.Partitions()
	if len(ps) != 1 {
		t.Skipf("setup produced %d partitions", len(ps))
	}
	p := c.parts[ps[0].ID]
	c.Delete(p.starterA)
	if p.starterB != 0 {
		c.Delete(p.starterB)
	}
	// Refill to capacity and force a split: starters must be repaired.
	next := EntityID(100)
	for c.Stats().Splits == 0 {
		c.Insert(ent(next, 1, 2, int(next)))
		next++
		if next > 200 {
			t.Fatal("no split occurred")
		}
	}
	total := 0
	for _, pi := range c.Partitions() {
		total += pi.Entities
	}
	if _, ok := c.Locate(3); !ok {
		t.Fatal("entity lost after starter-repair split")
	}
	_ = total
}
