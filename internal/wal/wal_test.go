package wal

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"
)

func tmpLog(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "test.wal")
}

func writeOps(t *testing.T, path string, ops []Op) {
	t.Helper()
	w, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range ops {
		if err := w.Append(op); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

func readAll(t *testing.T, path string) []Op {
	t.Helper()
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	var out []Op
	for {
		op, err := r.Next()
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, op)
	}
}

func TestRoundTrip(t *testing.T) {
	path := tmpLog(t)
	ops := []Op{
		{Kind: KindInsert, ID: 1, Data: []byte("hello")},
		{Kind: KindUpdate, ID: 1, Data: []byte("world!")},
		{Kind: KindDelete, ID: 1},
		{Kind: KindInsert, ID: 42, Data: bytes.Repeat([]byte{0xAB}, 10000)},
	}
	writeOps(t, path, ops)
	got := readAll(t, path)
	if len(got) != len(ops) {
		t.Fatalf("read %d ops, want %d", len(got), len(ops))
	}
	for i, op := range ops {
		g := got[i]
		if g.Kind != op.Kind || g.ID != op.ID || !bytes.Equal(g.Data, op.Data) {
			t.Fatalf("op %d: got %+v want %+v", i, g, op)
		}
	}
}

func TestEmptyAndMissing(t *testing.T) {
	path := tmpLog(t)
	if got := readAll(t, path); len(got) != 0 {
		t.Fatalf("missing file yielded %d ops", len(got))
	}
	writeOps(t, path, nil)
	if got := readAll(t, path); len(got) != 0 {
		t.Fatalf("empty file yielded %d ops", len(got))
	}
}

func TestAppendAcrossSessions(t *testing.T) {
	path := tmpLog(t)
	writeOps(t, path, []Op{{Kind: KindInsert, ID: 1, Data: []byte("a")}})
	writeOps(t, path, []Op{{Kind: KindInsert, ID: 2, Data: []byte("b")}})
	got := readAll(t, path)
	if len(got) != 2 || got[1].ID != 2 {
		t.Fatalf("got %+v", got)
	}
}

func TestTornTailDiscarded(t *testing.T) {
	path := tmpLog(t)
	writeOps(t, path, []Op{
		{Kind: KindInsert, ID: 1, Data: []byte("keep me")},
		{Kind: KindInsert, ID: 2, Data: []byte("torn")},
	})
	// Chop bytes off the end, simulating a crash mid-write.
	raw, _ := os.ReadFile(path)
	for cut := 1; cut < 12; cut++ {
		if err := os.WriteFile(path, raw[:len(raw)-cut], 0o644); err != nil {
			t.Fatal(err)
		}
		got := readAll(t, path)
		if len(got) != 1 || got[0].ID != 1 {
			t.Fatalf("cut %d: got %+v, want the first op only", cut, got)
		}
	}
}

func TestMidLogCorruptionReported(t *testing.T) {
	path := tmpLog(t)
	writeOps(t, path, []Op{
		{Kind: KindInsert, ID: 1, Data: []byte("first")},
		{Kind: KindInsert, ID: 2, Data: []byte("second")},
	})
	raw, _ := os.ReadFile(path)
	// Flip a data byte inside the FIRST record (not the tail).
	raw[10] ^= 0xFF
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, err := r.Next(); err != ErrCorrupt {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
}

func TestImplausibleLengthTreatedAsTorn(t *testing.T) {
	path := tmpLog(t)
	writeOps(t, path, []Op{{Kind: KindInsert, ID: 1, Data: []byte("x")}})
	f, _ := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	f.Write([]byte{1, 2, 3, 4, 0xFF, 0xFF, 0xFF, 0x7F}) // absurd length
	f.Close()
	got := readAll(t, path)
	if len(got) != 1 {
		t.Fatalf("got %d ops", len(got))
	}
}

func TestRewrite(t *testing.T) {
	path := tmpLog(t)
	writeOps(t, path, []Op{
		{Kind: KindInsert, ID: 1, Data: []byte("a")},
		{Kind: KindDelete, ID: 1},
		{Kind: KindInsert, ID: 2, Data: []byte("b")},
	})
	if err := Rewrite(path, []Op{{Kind: KindInsert, ID: 2, Data: []byte("b")}}); err != nil {
		t.Fatal(err)
	}
	got := readAll(t, path)
	if len(got) != 1 || got[0].ID != 2 {
		t.Fatalf("after rewrite: %+v", got)
	}
	// Temp file cleaned up.
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatal("temp file left behind")
	}
}

func TestPropRoundTrip(t *testing.T) {
	f := func(kinds []uint8, ids []uint64, blobs [][]byte) bool {
		if len(kinds) == 0 {
			return true
		}
		dir, err := os.MkdirTemp("", "wal")
		if err != nil {
			return false
		}
		defer os.RemoveAll(dir)
		path := filepath.Join(dir, "p.wal")
		var ops []Op
		for i, k := range kinds {
			op := Op{Kind: Kind(k%3 + 1)}
			if len(ids) > 0 {
				op.ID = ids[i%len(ids)]
			}
			if len(blobs) > 0 {
				op.Data = blobs[i%len(blobs)]
			}
			ops = append(ops, op)
		}
		w, err := Create(path)
		if err != nil {
			return false
		}
		for _, op := range ops {
			if w.Append(op) != nil {
				return false
			}
		}
		if w.Close() != nil {
			return false
		}
		r, err := Open(path)
		if err != nil {
			return false
		}
		defer r.Close()
		for _, want := range ops {
			got, err := r.Next()
			if err != nil || got.Kind != want.Kind || got.ID != want.ID ||
				!bytes.Equal(got.Data, want.Data) {
				return false
			}
		}
		_, err = r.Next()
		return err == io.EOF
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func BenchmarkAppend(b *testing.B) {
	path := filepath.Join(b.TempDir(), "bench.wal")
	w, err := Create(path)
	if err != nil {
		b.Fatal(err)
	}
	defer w.Close()
	data := bytes.Repeat([]byte{1}, 128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := w.Append(Op{Kind: KindInsert, ID: uint64(i), Data: data}); err != nil {
			b.Fatal(err)
		}
	}
}

func TestCreateInMissingDirFails(t *testing.T) {
	if _, err := Create(filepath.Join(t.TempDir(), "no", "such", "dir", "x.wal")); err == nil {
		t.Fatal("Create in missing directory succeeded")
	}
}

func TestOpenUnreadableFails(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "x.wal")
	writeOps(t, path, []Op{{Kind: KindInsert, ID: 1}})
	if err := os.Chmod(path, 0); err != nil {
		t.Fatal(err)
	}
	defer os.Chmod(path, 0o644)
	if _, err := Open(path); err == nil {
		t.Skip("running as root: permissions not enforced")
	}
}

func TestShortPayloadRejected(t *testing.T) {
	path := tmpLog(t)
	// Hand-craft a record with a 1-byte payload (kind only, no id).
	payload := []byte{byte(KindInsert)}
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:4], crc32.ChecksumIEEE(payload))
	binary.LittleEndian.PutUint32(hdr[4:8], uint32(len(payload)))
	if err := os.WriteFile(path, append(append([]byte{}, hdr[:]...), payload...), 0o644); err != nil {
		t.Fatal(err)
	}
	// Append a second valid-looking record so the corrupt one is not a
	// silent tail.
	f, _ := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	f.Write(hdr[:])
	f.Write(payload)
	f.Close()
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, err := r.Next(); err == nil {
		t.Fatal("short payload accepted")
	}
}

func TestRewriteToMissingDirFails(t *testing.T) {
	if err := Rewrite(filepath.Join(t.TempDir(), "no", "dir", "x.wal"), nil); err == nil {
		t.Fatal("Rewrite into missing directory succeeded")
	}
}

func TestWriterSeqSynced(t *testing.T) {
	path := filepath.Join(t.TempDir(), "w.log")
	w, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if w.Seq() != 0 || w.Synced() != 0 {
		t.Fatalf("fresh writer: seq=%d synced=%d, want 0,0", w.Seq(), w.Synced())
	}
	for i := 1; i <= 5; i++ {
		if err := w.Append(Op{Kind: KindInsert, ID: uint64(i)}); err != nil {
			t.Fatal(err)
		}
		if w.Seq() != uint64(i) {
			t.Fatalf("after %d appends: seq=%d", i, w.Seq())
		}
	}
	if w.Synced() != 0 {
		t.Fatalf("synced=%d before Sync, want 0", w.Synced())
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	if w.Synced() != 5 {
		t.Fatalf("synced=%d after Sync, want 5", w.Synced())
	}
	if err := w.Append(Op{Kind: KindDelete, ID: 9}); err != nil {
		t.Fatal(err)
	}
	if w.Seq() != 6 || w.Synced() != 5 {
		t.Fatalf("seq=%d synced=%d, want 6,5", w.Seq(), w.Synced())
	}
}

// TestWriterFailStopAfterFailedSync: once an fsync fails, the kernel may
// have dropped r1's dirty pages, so no later call may claim durability —
// not even one whose own fsync succeeds on a healthy file handle.
func TestWriterFailStopAfterFailedSync(t *testing.T) {
	path := filepath.Join(t.TempDir(), "w.log")
	w, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(Op{Kind: KindInsert, ID: 1, Data: []byte("r1")}); err != nil {
		t.Fatal(err)
	}
	seq, err := w.Flush()
	if err != nil {
		t.Fatal(err)
	}
	w.f.Close()
	if err := w.SyncFile(); err == nil {
		t.Fatal("SyncFile on a closed file succeeded")
	}
	w.MarkSynced(seq)

	// A fresh handle on the same file: its fsync would succeed.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	w.f = f
	w.buf.Reset(f)

	if err := w.Append(Op{Kind: KindInsert, ID: 2, Data: []byte("r2")}); err == nil {
		t.Error("Append after a failed fsync succeeded")
	}
	if _, err := w.Flush(); err == nil {
		t.Error("Flush after a failed fsync succeeded")
	}
	if err := w.SyncFile(); err == nil {
		t.Error("SyncFile after a failed fsync succeeded")
	}
	if err := w.Sync(); err == nil {
		t.Error("Sync after a failed fsync succeeded")
	}
	if w.Synced() != 0 {
		t.Fatalf("synced=%d after a failed fsync, want 0", w.Synced())
	}
}
