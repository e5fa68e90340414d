package mem

import (
	"testing"

	"warpedgates/internal/config"
	"warpedgates/internal/isa"
	"warpedgates/internal/stats"
)

func BenchmarkCacheAccessHit(b *testing.B) {
	c := NewCache(32, 4)
	for i := 0; i < 64; i++ {
		c.Access(Line(i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(Line(i & 63))
	}
}

func BenchmarkCacheAccessStreaming(b *testing.B) {
	c := NewCache(32, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(Line(i))
	}
}

func BenchmarkCoalescerRandom(b *testing.B) {
	c := NewCoalescer()
	rng := stats.NewSplitMix64(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Transactions(isa.PatternRandom, 0, uint64(i), 4096, rng)
	}
}

func BenchmarkGlobalAccess(b *testing.B) {
	cfg := config.GTX480()
	p := NewSMPort(cfg, NewGPUMem(cfg))
	lines := []Line{1, 2, 3, 4}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Expire(int64(i) * 1000)
		p.GlobalAccess(int64(i)*1000, lines)
	}
}

// BenchmarkMSHR drives a 32-entry table at full occupancy: every iteration
// expires the oldest entry, misses a lookup across the whole table, hits one,
// and allocates a replacement.
func BenchmarkMSHR(b *testing.B) {
	const entries = 32
	m := NewMSHR(entries)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now := int64(i)
		m.ExpireBefore(now)
		fill, _ := m.Lookup(Line(i - 1))
		mshrSink += fill
		if _, ok := m.Lookup(Line(i)); !ok && m.HasRoom(1) {
			m.Allocate(Line(i), now+entries)
		}
	}
}

// mshrSink keeps BenchmarkMSHR's hit lookups from being optimized away.
var mshrSink int64
