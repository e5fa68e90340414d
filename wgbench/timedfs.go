package main

import (
	"io/fs"
	"os"
	"sync/atomic"
	"time"

	"warpedgates/internal/store"
)

// timedFS is a pass-through store.FS that times every read, write and rename
// as a span and counts the bytes moved. It returns the inner filesystem's
// results untouched — errors included, unwrapped — so the store's transient
// retry and corruption quarantine see exactly what they would see without it.
type timedFS struct {
	inner   store.FS
	tr      *tracer
	written atomic.Int64
	read    atomic.Int64
}

func (f *timedFS) MkdirAll(path string, perm os.FileMode) error {
	return f.inner.MkdirAll(path, perm)
}

func (f *timedFS) WriteFile(path string, data []byte, perm os.FileMode) error {
	t0 := time.Now()
	err := f.inner.WriteFile(path, data, perm)
	f.tr.since(0, "store.write", t0)
	if err == nil {
		f.written.Add(int64(len(data)))
	}
	return err
}

func (f *timedFS) ReadFile(path string) ([]byte, error) {
	t0 := time.Now()
	data, err := f.inner.ReadFile(path)
	f.tr.since(0, "store.read", t0)
	f.read.Add(int64(len(data)))
	return data, err
}

func (f *timedFS) Rename(oldpath, newpath string) error {
	t0 := time.Now()
	err := f.inner.Rename(oldpath, newpath)
	f.tr.since(0, "store.rename", t0)
	return err
}

func (f *timedFS) Remove(path string) error { return f.inner.Remove(path) }

func (f *timedFS) ReadDir(path string) ([]fs.DirEntry, error) { return f.inner.ReadDir(path) }

func (f *timedFS) Stat(path string) (fs.FileInfo, error) { return f.inner.Stat(path) }
