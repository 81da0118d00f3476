package cinderella

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"cinderella/internal/synopsis"
)

// tierCfg keeps the fixtures' partitioning deterministic and small.
var tierCfg = Config{Weight: 0.3, PartitionSizeLimit: 200}

// seedTierTable inserts two well-separated attribute families and
// returns the partition id of the {"cold_a","cold_b"} family.
func seedTierTable(t *testing.T, d *DurableTable, n int) uint64 {
	t.Helper()
	for i := 0; i < n; i++ {
		if _, err := d.Insert(Doc{"hot_a": i, "hot_b": i}); err != nil {
			t.Fatal(err)
		}
		if _, err := d.Insert(Doc{"cold_a": i, "cold_b": i}); err != nil {
			t.Fatal(err)
		}
	}
	aid := d.Dict().ID("cold_a")
	for _, pv := range d.inner.Partitions() {
		if synopsis.Intersects(pv.Synopsis, synopsis.Of(aid)) {
			return uint64(pv.ID)
		}
	}
	t.Fatal("no partition holds cold_a")
	return 0
}

// copyTree copies the WAL file and its .tier sibling directory to a new
// path — the freeze-then-kill(-9) simulation: whatever was durable on
// disk at the copy instant is exactly what recovery sees.
func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	copyFile(t, src, dst)
	entries, err := os.ReadDir(tierDir(src))
	if errors.Is(err, os.ErrNotExist) {
		return
	}
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(tierDir(dst), 0o755); err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		copyFile(t, filepath.Join(tierDir(src), e.Name()), filepath.Join(tierDir(dst), e.Name()))
	}
}

func copyFile(t *testing.T, src, dst string) {
	t.Helper()
	data, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dst, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// sortedDocs canonicalizes a full scan for equality checks.
func sortedDocs(recs []Record) []Record {
	sort.Slice(recs, func(i, j int) bool { return recs[i].ID < recs[j].ID })
	return recs
}

// TestDurableTierFreezeKillReopen is the tier's crash-safety
// centerpiece: freeze a partition, kill the process without a clean
// close, and recover with the exact row count, one partition still
// frozen, and one still hot.
func TestDurableTierFreezeKillReopen(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.wal")
	d := openDurable(t, path, tierCfg)
	coldPID := seedTierTable(t, d, 60)

	ok, err := d.FreezePartition(coldPID)
	if err != nil || !ok {
		t.Fatalf("freeze = %v, %v", ok, err)
	}
	if _, err := os.Stat(filepath.Join(tierDir(path), "manifest.json")); err != nil {
		t.Fatalf("tier manifest not on disk: %v", err)
	}
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	before := sortedDocs(d.ScanAll())

	// Kill -9: copy the durable state aside while the table is still
	// open (no Close, no final flush beyond the explicit Sync above).
	crash := filepath.Join(dir, "crash.wal")
	copyTree(t, path, crash)
	d.Close()

	d2 := openDurable(t, crash, tierCfg)
	defer d2.Close()
	if got := d2.Len(); got != 120 {
		t.Fatalf("recovered %d rows, want 120", got)
	}
	if got := sortedDocs(d2.ScanAll()); len(got) != len(before) {
		t.Fatalf("recovered scan %d rows, want %d", len(got), len(before))
	}
	frozen := d2.FrozenPartitions()
	if len(frozen) != 1 || frozen[0] != coldPID {
		t.Fatalf("recovered frozen set %v, want [%d]", frozen, coldPID)
	}
	var hot, cold int
	for _, ts := range d2.TierStates() {
		if ts.Frozen {
			cold++
			if ts.ResidentBytes >= ts.RawBytes {
				t.Fatalf("recovered cold partition not compressed: %d >= %d", ts.ResidentBytes, ts.RawBytes)
			}
		} else {
			hot++
		}
	}
	if hot == 0 || cold == 0 {
		t.Fatalf("recovered tiers hot=%d cold=%d, want both nonzero", hot, cold)
	}
	// The frozen partition still answers queries.
	if got := d2.Query("cold_a"); len(got) != 60 {
		t.Fatalf("recovered cold query %d hits, want 60", len(got))
	}
}

// tierFiles lists the names under path's tier directory.
func tierFiles(t *testing.T, path string) []string {
	t.Helper()
	entries, err := os.ReadDir(tierDir(path))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	return names
}

// TestDurableTierLegacyImagesIgnored: older builds also wrote one
// checksummed cold-<pid>.seg image per frozen partition and refused to
// open when one was missing or corrupt. The rows come from the WAL, so
// those images are now ignored: a layout with one corrupt and one
// missing image opens with exact rows and the frozen set restored, and
// the leftovers go with the directory once the frozen set empties.
func TestDurableTierLegacyImagesIgnored(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.wal")
	d := openDurable(t, path, tierCfg)
	seedTierTable(t, d, 40)
	for _, ts := range d.TierStates() {
		if _, err := d.FreezePartition(uint64(ts.Partition)); err != nil {
			t.Fatal(err)
		}
	}
	frozen := d.FrozenPartitions()
	if len(frozen) < 2 {
		t.Fatalf("frozen set %v, want at least two partitions", frozen)
	}
	before := sortedDocs(d.ScanAll())
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	// The older layout, damaged: the first listed pid's image is corrupt,
	// the last one's is missing, any between are well-formed-looking.
	for i, pid := range frozen {
		img := filepath.Join(tierDir(path), fmt.Sprintf("cold-%d.seg", pid))
		var err error
		switch i {
		case 0:
			err = os.WriteFile(img, []byte("torn"), 0o644)
		case len(frozen) - 1:
			if err = os.Remove(img); errors.Is(err, os.ErrNotExist) {
				err = nil
			}
		default:
			err = os.WriteFile(img, []byte("CINDCOL1 image"), 0o644)
		}
		if err != nil {
			t.Fatal(err)
		}
	}

	d2 := openDurable(t, path, tierCfg)
	defer d2.Close()
	after := sortedDocs(d2.ScanAll())
	if !reflect.DeepEqual(after, before) {
		t.Fatalf("recovered %d rows differ from the %d written", len(after), len(before))
	}
	if got := d2.FrozenPartitions(); !reflect.DeepEqual(got, frozen) {
		t.Fatalf("recovered frozen set %v, want %v", got, frozen)
	}
	for _, pid := range frozen {
		if _, err := d2.ThawPartition(pid); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := os.Stat(tierDir(path)); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("legacy images survive the last thaw: %v", err)
	}
}

// TestDurableTierThawPersists: an explicit thaw commits the manifest
// change, and the last thaw removes the tier directory entirely.
func TestDurableTierThawPersists(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.wal")
	d := openDurable(t, path, tierCfg)
	coldPID := seedTierTable(t, d, 40)
	if ok, err := d.FreezePartition(coldPID); err != nil || !ok {
		t.Fatalf("freeze = %v, %v", ok, err)
	}
	if ok, err := d.ThawPartition(coldPID); err != nil || !ok {
		t.Fatalf("thaw = %v, %v", ok, err)
	}
	if _, err := os.Stat(tierDir(path)); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("tier dir survives last thaw: %v", err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d2 := openDurable(t, path, tierCfg)
	defer d2.Close()
	if got := d2.FrozenPartitions(); len(got) != 0 {
		t.Fatalf("recovered frozen set %v, want empty", got)
	}
	if got := d2.Len(); got != 80 {
		t.Fatalf("recovered %d rows, want 80", got)
	}
}

// TestDurableTierImplicitThawRecovers: a mutation reaching a frozen
// partition thaws it inside the table layer without telling the durable
// layer; the manifest over-reports until the next reconcile. Recovery
// must still produce exact rows — the stale manifest entry only makes
// it re-freeze the (now mutated) partition from the replayed rows.
func TestDurableTierImplicitThawRecovers(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.wal")
	d := openDurable(t, path, tierCfg)
	coldPID := seedTierTable(t, d, 40)
	if ok, err := d.FreezePartition(coldPID); err != nil || !ok {
		t.Fatalf("freeze = %v, %v", ok, err)
	}
	victim := d.Query("cold_a")[0].ID
	if ok, err := d.Delete(victim); err != nil || !ok {
		t.Fatalf("delete through frozen partition = %v, %v", ok, err)
	}
	if got := d.FrozenPartitions(); len(got) != 0 {
		t.Fatalf("frozen set after implicit thaw %v, want empty", got)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	d2 := openDurable(t, path, tierCfg)
	defer d2.Close()
	if got := d2.Len(); got != 79 {
		t.Fatalf("recovered %d rows, want 79", got)
	}
	if _, ok := d2.Get(victim); ok {
		t.Fatal("deleted row resurrected by tier recovery")
	}
	if got := d2.Query("cold_a"); len(got) != 39 {
		t.Fatalf("recovered cold query %d hits, want 39", len(got))
	}
}

// TestDurableTierOrphanImagesSwept: leftovers without a manifest — a
// stray manifest.json.tmp from a crash mid-replace, or a cold image an
// older build wrote — are a crash before the first freeze committed:
// recovery sweeps them and opens clean. Next to a committed manifest a
// stray manifest.json.tmp is harmless: the open restores the listed
// frozen set and its manifest rewrite consumes the temp file.
func TestDurableTierOrphanImagesSwept(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.wal")
	d := openDurable(t, path, tierCfg)
	coldPID := seedTierTable(t, d, 10)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(tierDir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	stray := filepath.Join(tierDir(path), "manifest.json.tmp")
	for name, data := range map[string]string{"manifest.json.tmp": `{"version":1,"fro`, "cold-7.seg": "torn"} {
		if err := os.WriteFile(filepath.Join(tierDir(path), name), []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	d2 := openDurable(t, path, tierCfg)
	if got := d2.FrozenPartitions(); len(got) != 0 {
		t.Fatalf("frozen set %v from orphan files, want empty", got)
	}
	if _, err := os.Stat(tierDir(path)); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("orphan tier dir not swept: %v", err)
	}

	if ok, err := d2.FreezePartition(coldPID); err != nil || !ok {
		t.Fatalf("freeze = %v, %v", ok, err)
	}
	if err := d2.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(stray, []byte(`{"version":1,"frozen":[99`), 0o644); err != nil {
		t.Fatal(err)
	}
	d3 := openDurable(t, path, tierCfg)
	defer d3.Close()
	if got := d3.FrozenPartitions(); len(got) != 1 || got[0] != coldPID {
		t.Fatalf("frozen set %v next to a stray temp manifest, want [%d]", got, coldPID)
	}
	if _, err := os.Stat(stray); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("stray temp manifest survives the open: %v", err)
	}
}

// TestDurableTierCheckpointKeepsTier: checkpointing rewrites the log
// and the tier manifest, which stays the tier's only file on disk; the
// frozen set survives the reopen.
func TestDurableTierCheckpointKeepsTier(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.wal")
	d := openDurable(t, path, tierCfg)
	coldPID := seedTierTable(t, d, 40)
	if ok, err := d.FreezePartition(coldPID); err != nil || !ok {
		t.Fatalf("freeze = %v, %v", ok, err)
	}
	if got := tierFiles(t, path); len(got) != 1 || got[0] != "manifest.json" {
		t.Fatalf("tier dir after freeze holds %v, want [manifest.json]", got)
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if got := tierFiles(t, path); len(got) != 1 || got[0] != "manifest.json" {
		t.Fatalf("tier dir after checkpoint holds %v, want [manifest.json]", got)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d2 := openDurable(t, path, tierCfg)
	defer d2.Close()
	if got := d2.Len(); got != 80 {
		t.Fatalf("recovered %d rows, want 80", got)
	}
	if got := d2.Query("cold_a"); len(got) != 40 {
		t.Fatalf("recovered cold query %d hits, want 40", len(got))
	}
}

// TestDurableTierFreezeReopenProperty drives three deterministic
// workload shapes through insert/delete/freeze/kill/reopen and checks
// the recovered scan is bit-identical to the pre-crash one.
func TestDurableTierFreezeReopenProperty(t *testing.T) {
	for seed := 1; seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, "t.wal")
			d := openDurable(t, path, tierCfg)
			// Three attribute families, sized by seed.
			for i := 0; i < 30*seed; i++ {
				fam := (i*seed + i) % 3
				if _, err := d.Insert(Doc{
					fmt.Sprintf("fam%d_a", fam): i,
					fmt.Sprintf("fam%d_b", fam): i * seed,
				}); err != nil {
					t.Fatal(err)
				}
			}
			// Delete a seed-dependent slice.
			all := d.ScanAll()
			for i := 0; i < len(all); i += 7 + seed {
				if _, err := d.Delete(all[i].ID); err != nil {
					t.Fatal(err)
				}
			}
			// Freeze every other freezable partition.
			for i, ts := range d.TierStates() {
				if i%2 == 0 && ts.Entities > 0 {
					if _, err := d.FreezePartition(uint64(ts.Partition)); err != nil {
						t.Fatal(err)
					}
				}
			}
			if err := d.Sync(); err != nil {
				t.Fatal(err)
			}
			before := sortedDocs(d.ScanAll())
			frozenBefore := d.FrozenPartitions()

			crash := filepath.Join(dir, "crash.wal")
			copyTree(t, path, crash)
			d.Close()

			d2 := openDurable(t, crash, tierCfg)
			defer d2.Close()
			after := sortedDocs(d2.ScanAll())
			if len(after) != len(before) {
				t.Fatalf("recovered %d rows, want %d", len(after), len(before))
			}
			for i := range before {
				if before[i].ID != after[i].ID {
					t.Fatalf("row %d: id %d != %d", i, after[i].ID, before[i].ID)
				}
			}
			frozenAfter := d2.FrozenPartitions()
			if len(frozenAfter) != len(frozenBefore) {
				t.Fatalf("recovered frozen set %v, want %v", frozenAfter, frozenBefore)
			}
		})
	}
}
