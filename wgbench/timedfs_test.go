package main

import (
	"bytes"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"testing"

	"warpedgates/internal/faultfs"
	"warpedgates/internal/store"
)

func TestTimedFSForwardsBytesAndErrors(t *testing.T) {
	dir := t.TempDir()
	tr := newTracer()
	tfs := &timedFS{inner: store.OSFS{}, tr: tr}
	payload := []byte("report bytes")
	tmp, final := filepath.Join(dir, "entry.tmp"), filepath.Join(dir, "entry")
	if err := tfs.WriteFile(tmp, payload, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := tfs.Rename(tmp, final); err != nil {
		t.Fatal(err)
	}
	got, err := tfs.ReadFile(final)
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("ReadFile = %q, %v; want %q", got, err, payload)
	}
	if w, r := tfs.written.Load(), tfs.read.Load(); w != int64(len(payload)) || r != int64(len(payload)) {
		t.Fatalf("bytes written/read = %d/%d, want %d/%d", w, r, len(payload), len(payload))
	}
	for _, name := range []string{"store.write", "store.rename", "store.read"} {
		if n := len(tr.durations(name)); n != 1 {
			t.Errorf("%d %s spans, want 1", n, name)
		}
	}

	// Errors come back exactly as the inner filesystem returns them.
	missing := filepath.Join(dir, "missing")
	_, want := store.OSFS{}.ReadFile(missing)
	_, err = tfs.ReadFile(missing)
	if !os.IsNotExist(err) || err.Error() != want.Error() {
		t.Fatalf("ReadFile of a missing file = %v, want %v", err, want)
	}
	if err := tfs.Rename(missing, final); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("Rename of a missing file = %v, want ErrNotExist", err)
	}
}

// TestTimedFSKeepsStoreFaultHandling runs the store's transient-retry and
// quarantine paths through the wrapper and without it; the store must
// behave identically.
func TestTimedFSKeepsStoreFaultHandling(t *testing.T) {
	noDelay := store.DefaultRetry()
	noDelay.BaseDelay, noDelay.MaxDelay = 0, 0
	run := func(wrap bool) store.Health {
		dir := t.TempDir()
		ffs := faultfs.New(store.OSFS{})
		var fsys store.FS = ffs
		if wrap {
			fsys = &timedFS{inner: ffs, tr: newTracer()}
		}
		st, err := store.OpenFS(fsys, dir, noDelay)
		if err != nil {
			t.Fatal(err)
		}
		ffs.TransientErrs(2)
		if err := st.Put("k", []byte("v")); err != nil {
			t.Fatalf("Put with two transient faults (wrapped=%v): %v", wrap, err)
		}
		ffs.TransientErrs(100)
		if err := st.Put("k2", []byte("v")); !errors.Is(err, faultfs.ErrTransient) {
			t.Fatalf("Put past the retry budget (wrapped=%v) = %v, want ErrTransient", wrap, err)
		}
		ffs.TransientErrs(0)
		if _, ok, err := st.Get("absent"); ok || err != nil {
			t.Fatalf("Get of an absent key (wrapped=%v) = %v, %v; want a plain miss", wrap, ok, err)
		}
		// Damage the committed entry on disk: a stable corruption.
		h := store.HashKey("k")
		path := filepath.Join(dir, "objects", h[:2], h+".rep")
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		raw[len(raw)-1] ^= 0xff
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, ok, err := st.Get("k"); ok || err != nil {
			t.Fatalf("Get of a corrupt entry (wrapped=%v) = %v, %v; want a miss", wrap, ok, err)
		}
		return st.Health()
	}
	plain, wrapped := run(false), run(true)
	if plain != wrapped {
		t.Fatalf("store health through the wrapper %s, without it %s", wrapped, plain)
	}
	if wrapped.Quarantined != 1 || wrapped.Retries < 2 || wrapped.WriteErrors != 1 {
		t.Fatalf("store health %s: want 1 quarantined, >= 2 retries, 1 write error", wrapped)
	}
}
