// Package fsutil holds the durable file replace behind every on-disk
// commit point (the WAL checkpoint, the shard manifest and the tier
// manifest) and the durable directory create behind the tier directory.
package fsutil

import (
	"io"
	"os"
	"path/filepath"
)

// ReplaceFile atomically replaces path with what write produces (write
// gets the unbuffered file). It writes path+".tmp", fsyncs it, renames
// it over path and fsyncs the parent directory, so a nil return
// survives a power loss. On an error before the rename the old file is
// untouched and the temp file is removed.
func ReplaceFile(path string, write func(io.Writer) error) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	err = write(f)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	return syncDir(filepath.Dir(path))
}

// MkdirDurable creates directory path if it is missing and then fsyncs
// its parent, so the new entry survives a power loss. The parent must
// exist. An existing directory is left alone and costs no fsync.
func MkdirDurable(path string) error {
	if err := os.Mkdir(path, 0o755); err != nil {
		if fi, serr := os.Stat(path); serr == nil && fi.IsDir() {
			return nil
		}
		return err
	}
	return syncDir(filepath.Dir(path))
}

// syncDir fsyncs directory dir, persisting its entries.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// WriteFile is ReplaceFile for content already in memory.
func WriteFile(path string, data []byte) error {
	return ReplaceFile(path, func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
}
