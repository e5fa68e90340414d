package mem

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMSHRAllocateLookupExpire(t *testing.T) {
	m := NewMSHR(4)
	m.Allocate(10, 100)
	if done, ok := m.Lookup(10); !ok || done != 100 {
		t.Fatalf("Lookup = %v,%v", done, ok)
	}
	if m.InFlight() != 1 {
		t.Fatalf("InFlight = %d", m.InFlight())
	}
	m.ExpireBefore(99)
	if m.InFlight() != 1 {
		t.Fatal("entry expired early")
	}
	m.ExpireBefore(100)
	if m.InFlight() != 0 {
		t.Fatal("entry not expired at its completion cycle")
	}
	if _, ok := m.Lookup(10); ok {
		t.Fatal("expired entry still pending")
	}
}

func TestMSHRHasRoom(t *testing.T) {
	m := NewMSHR(2)
	if !m.HasRoom(2) {
		t.Fatal("empty table should have room for 2")
	}
	if m.HasRoom(3) {
		t.Fatal("room for more than capacity")
	}
	m.Allocate(1, 10)
	if !m.HasRoom(1) || m.HasRoom(2) {
		t.Fatal("HasRoom wrong after one allocation")
	}
}

func TestMSHRDoubleAllocatePanics(t *testing.T) {
	m := NewMSHR(2)
	m.Allocate(1, 10)
	defer func() {
		if recover() == nil {
			t.Fatal("double allocation did not panic")
		}
	}()
	m.Allocate(1, 20)
}

func TestMSHROverflowPanics(t *testing.T) {
	m := NewMSHR(1)
	m.Allocate(1, 10)
	defer func() {
		if recover() == nil {
			t.Fatal("overflow did not panic")
		}
	}()
	m.Allocate(2, 10)
}

func TestMSHRZeroCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero capacity did not panic")
		}
	}()
	NewMSHR(0)
}

func TestMSHRStats(t *testing.T) {
	m := NewMSHR(4)
	m.Allocate(1, 5)
	m.NoteMerge()
	m.NoteMerge()
	m.NoteFull()
	allocs, merges, fulls := m.Stats()
	if allocs != 1 || merges != 2 || fulls != 1 {
		t.Fatalf("stats = %d/%d/%d", allocs, merges, fulls)
	}
}

func TestMSHRNeverExceedsCapacityProperty(t *testing.T) {
	// Property: under random allocate/expire traffic guarded by HasRoom,
	// occupancy never exceeds capacity and Lookup agrees with allocations.
	f := func(ops []uint16) bool {
		m := NewMSHR(8)
		clock := int64(0)
		for _, op := range ops {
			clock++
			line := Line(op % 32)
			if _, pending := m.Lookup(line); pending {
				m.NoteMerge()
				continue
			}
			if !m.HasRoom(1) {
				m.ExpireBefore(clock + 50) // drain some
				continue
			}
			m.Allocate(line, clock+int64(op%100))
			if m.InFlight() > m.Capacity() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestMSHRPatchCompletesStagedEntry(t *testing.T) {
	m := NewMSHR(2)
	m.AllocatePending(3)
	// An unpatched entry is pending but can never expire.
	if _, ok := m.Lookup(3); !ok {
		t.Fatal("staged entry not pending")
	}
	m.ExpireBefore(1 << 62)
	if m.InFlight() != 1 {
		t.Fatal("staged entry expired before being patched")
	}
	m.Patch(3, 100)
	if done, _ := m.Lookup(3); done != 100 {
		t.Fatalf("patched completion = %d, want 100", done)
	}
	m.ExpireBefore(100)
	if m.InFlight() != 0 {
		t.Fatal("patched entry did not expire")
	}
}

func TestMSHRPatchWithoutEntryPanics(t *testing.T) {
	m := NewMSHR(1)
	defer func() {
		if recover() == nil {
			t.Fatal("patch of a missing entry did not panic")
		}
	}()
	m.Patch(9, 5)
}

func TestMSHRDoublePatchPanics(t *testing.T) {
	m := NewMSHR(1)
	m.AllocatePending(9)
	m.Patch(9, 5)
	defer func() {
		if recover() == nil {
			t.Fatal("double patch did not panic")
		}
	}()
	m.Patch(9, 6)
}

// TestMSHRMinFillFastPathMatchesSweep drives a randomized allocate / patch /
// expire schedule against a shadow map, asserting the minFill fast path never
// skips an expiry the full sweep would have performed and never leaves the
// table differing from the oracle.
func TestMSHRMinFillFastPathMatchesSweep(t *testing.T) {
	f := func(ops []uint16) bool {
		m := NewMSHR(8)
		shadow := map[Line]int64{}
		now := int64(0)
		for _, op := range ops {
			line := Line(op % 16)
			switch {
			case op%3 == 0: // advance the clock and expire
				now += int64(op % 64)
				m.ExpireBefore(now)
				for l, till := range shadow {
					if till <= now {
						delete(shadow, l)
					}
				}
			case op%3 == 1: // allocate with a known fill cycle
				if _, pending := m.Lookup(line); pending || !m.HasRoom(1) {
					continue
				}
				fill := now + 1 + int64(op%128)
				m.Allocate(line, fill)
				shadow[line] = fill
			default: // stage then patch, exercising the sentinel path
				if _, pending := m.Lookup(line); pending || !m.HasRoom(1) {
					continue
				}
				m.AllocatePending(line)
				fill := now + 1 + int64(op%128)
				m.Patch(line, fill)
				shadow[line] = fill
			}
			if m.InFlight() != len(shadow) {
				t.Logf("in-flight %d, oracle %d", m.InFlight(), len(shadow))
				return false
			}
			for l, till := range shadow {
				got, ok := m.Lookup(l)
				if !ok || got != till {
					t.Logf("line %d: got %d,%v want %d", l, got, ok, till)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestMSHRQuiescentExpireKeepsPendingEntry pins the fast path against the
// sentinel: a table holding only staged (unpatched) entries must treat every
// ExpireBefore as quiescent, no matter how far the clock advances.
func TestMSHRQuiescentExpireKeepsPendingEntry(t *testing.T) {
	m := NewMSHR(2)
	m.AllocatePending(3)
	m.ExpireBefore(1 << 60)
	if m.InFlight() != 1 {
		t.Fatal("unpatched entry expired")
	}
	m.Patch(3, 100)
	m.ExpireBefore(99)
	if m.InFlight() != 1 {
		t.Fatal("entry expired before its fill cycle")
	}
	m.ExpireBefore(100)
	if m.InFlight() != 0 {
		t.Fatal("entry survived its fill cycle")
	}
}

// panics reports whether f panicked.
func panics(f func()) (did bool) {
	defer func() { did = recover() != nil }()
	f()
	return false
}

// TestMSHRMatchesMapModel runs random traffic — including the four protocol
// violations — against a map-backed reference model of the table and checks
// every observable (Lookup, HasRoom, InFlight) after each operation. A call
// the model rejects must panic and leave the table unchanged.
func TestMSHRMatchesMapModel(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		capacity := 1 + rng.Intn(32)
		m := NewMSHR(capacity)
		model := map[Line]int64{}
		now := int64(0)
		for op := 0; op < 400; op++ {
			line := Line(rng.Intn(2 * capacity))
			fill, inModel := model[line]
			switch k := rng.Intn(6); k {
			case 0: // Allocate with a known fill cycle
				c := now + 1 + int64(rng.Intn(64))
				bad := inModel || len(model) >= capacity
				if got := panics(func() { m.Allocate(line, c) }); got != bad {
					t.Fatalf("trial %d op %d: Allocate(%d) panicked=%v, model says %v", trial, op, line, got, bad)
				}
				if !bad {
					model[line] = c
				}
			case 1: // AllocatePending
				bad := inModel || len(model) >= capacity
				if got := panics(func() { m.AllocatePending(line) }); got != bad {
					t.Fatalf("trial %d op %d: AllocatePending(%d) panicked=%v, model says %v", trial, op, line, got, bad)
				}
				if !bad {
					model[line] = pendingFill
				}
			case 2: // Patch: missing entry and double patch must panic
				c := now + 1 + int64(rng.Intn(64))
				bad := !inModel || fill != pendingFill
				if got := panics(func() { m.Patch(line, c) }); got != bad {
					t.Fatalf("trial %d op %d: Patch(%d) panicked=%v, model says %v", trial, op, line, got, bad)
				}
				if !bad {
					model[line] = c
				}
			case 3: // advance the clock and expire
				now += int64(rng.Intn(16))
				m.ExpireBefore(now)
				for l, till := range model {
					if till <= now {
						delete(model, l)
					}
				}
			case 4: // HasRoom for a random request size
				n := rng.Intn(capacity + 2)
				if got, want := m.HasRoom(n), len(model)+n <= capacity; got != want {
					t.Fatalf("trial %d op %d: HasRoom(%d) = %v, model %v", trial, op, n, got, want)
				}
			default: // Lookup of a random line
				got, ok := m.Lookup(line)
				if ok != inModel || (ok && got != fill) {
					t.Fatalf("trial %d op %d: Lookup(%d) = %d,%v, model %d,%v", trial, op, line, got, ok, fill, inModel)
				}
			}
			if m.InFlight() != len(model) || m.Capacity() != capacity {
				t.Fatalf("trial %d op %d: in-flight %d/%d, model %d/%d", trial, op, m.InFlight(), m.Capacity(), len(model), capacity)
			}
			for l, till := range model {
				if got, ok := m.Lookup(l); !ok || got != till {
					t.Fatalf("trial %d op %d: line %d = %d,%v, model %d", trial, op, l, got, ok, till)
				}
			}
		}
	}
}
