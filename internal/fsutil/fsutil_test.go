package fsutil

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// TestReplaceFile pins the functional contract: the content is replaced,
// no temp file is left, and a failed write leaves the old file intact.
// The fsyncs themselves are not observable without a fault-injecting
// filesystem.
func TestReplaceFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "manifest.json")
	read := func() string {
		t.Helper()
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	noTmp := func() {
		t.Helper()
		if _, err := os.Stat(path + ".tmp"); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("temp file left behind: %v", err)
		}
	}

	if err := WriteFile(path, []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if got := read(); got != "v1" {
		t.Fatalf("content %q, want v1", got)
	}
	noTmp()
	if err := WriteFile(path, []byte("v2, longer")); err != nil {
		t.Fatal(err)
	}
	if got := read(); got != "v2, longer" {
		t.Fatalf("content %q, want replaced", got)
	}
	noTmp()

	boom := errors.New("boom")
	err := ReplaceFile(path, func(w io.Writer) error {
		if _, err := w.Write([]byte("half")); err != nil {
			return err
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("failed write returned %v, want %v", err, boom)
	}
	if got := read(); got != "v2, longer" {
		t.Fatalf("failed write changed the file to %q", got)
	}
	noTmp()

	// A temp path that cannot be opened fails before touching the file.
	if err := os.Mkdir(path+".tmp", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := WriteFile(path, []byte("v3")); err == nil {
		t.Fatal("write over a blocked temp path succeeded")
	}
	if got := read(); got != "v2, longer" {
		t.Fatalf("blocked write changed the file to %q", got)
	}
}

// TestMkdirDurable pins the functional contract: a missing directory is
// created, an existing one is accepted, and a file squatting on the
// path or a missing parent is an error. The parent-directory fsync is
// not observable without a fault-injecting filesystem.
func TestMkdirDurable(t *testing.T) {
	root := t.TempDir()
	dir := filepath.Join(root, "t.wal.tier")
	for i := 0; i < 2; i++ {
		if err := MkdirDurable(dir); err != nil {
			t.Fatalf("call %d: %v", i+1, err)
		}
		if fi, err := os.Stat(dir); err != nil || !fi.IsDir() {
			t.Fatalf("call %d: %s is not a directory: %v", i+1, dir, err)
		}
	}
	file := filepath.Join(root, "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := MkdirDurable(file); err == nil {
		t.Fatal("MkdirDurable over a regular file succeeded")
	}
	if err := MkdirDurable(filepath.Join(root, "no", "dir")); err == nil {
		t.Fatal("MkdirDurable under a missing parent succeeded")
	}
}
