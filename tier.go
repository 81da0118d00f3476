package cinderella

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"cinderella/internal/core"
	"cinderella/internal/fsutil"
	"cinderella/internal/table"
)

// Tiered storage, durable half. The table layer freezes cold partitions
// into compressed in-memory segments (internal/table, internal/storage);
// this file makes the frozen set survive a crash. Its only persisted
// state is <path>.tier/manifest.json, {"version":1,"frozen":[pids]},
// next to the WAL at <path>. Every freeze, thaw, checkpoint and reopen
// replaces it durably (fsutil.WriteFile); it goes with its directory
// when the frozen set empties. Other files there, such as the
// cold-<pid>.seg images older builds wrote, are ignored until then.
//
// The WAL is the row source of truth and placement is a deterministic
// function of it, so reopen replays the WAL and re-freezes the listed
// partitions from the replayed rows. An implicit thaw (a mutation
// reaching a frozen partition) leaves the manifest over-reporting until
// the next reconcile; that is safe because recovery rebuilds frozen
// partitions from replayed rows and never reads them from disk.

// tierManifestVersion guards the on-disk tier layout.
const tierManifestVersion = 1

// tierManifest is the cold tier's commit record.
type tierManifest struct {
	Version int                `json:"version"`
	Frozen  []core.PartitionID `json:"frozen"`
}

// tierDir returns the cold-tier directory for a WAL at path.
func tierDir(path string) string { return path + ".tier" }

// TierState re-exports the per-partition tier report row.
type TierState = table.TierState

// TierStates snapshots every partition's storage tier, ordered by id.
func (t *Table) TierStates() []TierState { return t.inner.TierStates() }

// TierCounters returns the cumulative freeze and thaw transition counts.
func (t *Table) TierCounters() (freezes, thaws int64) { return t.inner.TierCounters() }

// FrozenPartitions returns the ids of all frozen partitions, ascending.
func (t *Table) FrozenPartitions() []uint64 {
	pids := t.inner.FrozenPartitions()
	out := make([]uint64, len(pids))
	for i, pid := range pids {
		out[i] = uint64(pid)
	}
	return out
}

// FreezePartition moves one partition into the compressed cold tier (see
// table.Table.FreezePartition). In-memory only; DurableTable overrides
// this with the persistent variant.
func (t *Table) FreezePartition(pid uint64) bool {
	return t.inner.FreezePartition(core.PartitionID(pid))
}

// ThawPartition moves one frozen partition back to the hot tier.
func (t *Table) ThawPartition(pid uint64) bool {
	return t.inner.ThawPartition(core.PartitionID(pid))
}

// FreezePartition freezes pid into the cold tier and persists the
// transition by rewriting the tier manifest. Returns (false, nil) when
// pid has no hot rows to freeze. A persistence failure rolls the
// partition back to the hot tier so memory and disk agree.
func (d *DurableTable) FreezePartition(pid uint64) (bool, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return false, ErrClosed
	}
	if !d.inner.FreezePartition(core.PartitionID(pid)) {
		return false, nil
	}
	if err := d.persistTier(); err != nil {
		d.inner.ThawPartition(core.PartitionID(pid))
		return false, err
	}
	return true, nil
}

// ThawPartition thaws pid back into the hot tier and persists the
// transition by rewriting the tier manifest. Returns (false, nil) when
// pid is not frozen. The thaw itself is never rolled back on a
// persistence failure: a stale manifest entry only makes recovery
// re-freeze the partition, it cannot lose rows.
func (d *DurableTable) ThawPartition(pid uint64) (bool, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return false, ErrClosed
	}
	if !d.inner.ThawPartition(core.PartitionID(pid)) {
		return false, nil
	}
	return true, d.persistTier()
}

// persistTier rewrites <path>.tier/manifest.json from the table's
// current frozen set, or removes the whole directory when that set is
// empty. Callers hold d.mu.
func (d *DurableTable) persistTier() error {
	frozen := d.inner.FrozenPartitions()
	dir := tierDir(d.path)
	if len(frozen) == 0 {
		return os.RemoveAll(dir)
	}
	if err := fsutil.MkdirDurable(dir); err != nil {
		return err
	}
	data, err := json.Marshal(tierManifest{Version: tierManifestVersion, Frozen: frozen})
	if err != nil {
		return err
	}
	return fsutil.WriteFile(filepath.Join(dir, "manifest.json"), append(data, '\n'))
}

// recoverTier restores the cold tier after the WAL replay: the listed
// partitions are re-frozen from the replayed rows and the manifest is
// rewritten, dropping ids the replay no longer produces (all rows
// deleted, or a checkpointed log re-placed them). A tier directory
// without a manifest is a crash before the first freeze committed:
// swept.
func (d *DurableTable) recoverTier() error {
	dir := tierDir(d.path)
	data, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	if errors.Is(err, os.ErrNotExist) {
		return os.RemoveAll(dir)
	}
	if err != nil {
		return err
	}
	var m tierManifest
	if err := json.Unmarshal(data, &m); err != nil {
		return fmt.Errorf("cinderella: %s/manifest.json is torn or corrupt: %w", dir, err)
	}
	if m.Version != tierManifestVersion {
		return fmt.Errorf("cinderella: %s has tier version %d, this binary supports %d", dir, m.Version, tierManifestVersion)
	}
	for _, pid := range m.Frozen {
		d.inner.FreezePartition(pid)
	}
	return d.persistTier()
}
