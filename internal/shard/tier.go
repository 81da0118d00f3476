package shard

import (
	"fmt"

	"cinderella"
	"cinderella/internal/tier"
)

// Tiered storage across shards. Each shard's durable table owns its own
// cold tier (its manifest lives next to the shard's WAL), so
// the fan-out here is pure routing: tier states concatenate in shard
// order and freeze/thaw address one (shard, partition) pair, exactly
// like ReclusterPartition. Sharded satisfies tier.Store directly.

// TierStates concatenates the per-shard tier reports in shard order
// (each shard's slice is partition-id ordered).
func (s *Sharded) TierStates() []tier.State {
	per := fanOut(s.shards, func(i int, d *cinderella.DurableTable) []tier.State {
		states := d.TierStates()
		out := make([]tier.State, len(states))
		for j, ts := range states {
			out[j] = tier.State{Shard: i, TierState: ts}
		}
		return out
	})
	var out []tier.State
	for _, p := range per {
		out = append(out, p...)
	}
	return out
}

// FreezePartition freezes one partition on its owning shard (see
// cinderella.DurableTable.FreezePartition).
func (s *Sharded) FreezePartition(shard int, pid uint64) (bool, error) {
	if shard < 0 || shard >= len(s.shards) {
		return false, fmt.Errorf("shard: freeze on unknown shard %d of %d", shard, len(s.shards))
	}
	return s.shards[shard].FreezePartition(pid)
}

// ThawPartition thaws one frozen partition on its owning shard.
func (s *Sharded) ThawPartition(shard int, pid uint64) (bool, error) {
	if shard < 0 || shard >= len(s.shards) {
		return false, fmt.Errorf("shard: thaw on unknown shard %d of %d", shard, len(s.shards))
	}
	return s.shards[shard].ThawPartition(pid)
}

// TierCounters sums the cumulative freeze and thaw transition counts
// across shards.
func (s *Sharded) TierCounters() (freezes, thaws int64) {
	for _, d := range s.shards {
		f, t := d.TierCounters()
		freezes += f
		thaws += t
	}
	return freezes, thaws
}
