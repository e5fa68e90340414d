package sim

import (
	"context"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
)

// The parallel engine: the SM array is stepped by several worker goroutines
// while every observable stays bit-identical to the serial loop in GPU.Run.
//
// Workers step SMs in compute phases separated by a sense-reversing barrier
// whose last arriver runs a short coordinator section (advance), which also
// resolves every parked memory access.
//
// Compute phase. Workers step disjoint SM sets, but not fixed shards: each
// window, workers claim SM indices one at a time from a shared atomic counter
// (reset by the coordinator when it opens the window), so a worker whose
// claimed SMs all parked or drained keeps claiming live SMs instead of
// spinning at the barrier while another worker steps a long shard alone.
// Claiming only decides *which goroutine* steps an SM — every per-SM
// observable (pos, pendingAt, staged ops) lives in per-SM slots written solely
// by the claiming worker within the window and handed across the barrier, so
// any claim interleaving produces byte-identical results. Each SM runs at
// its own position pos[i] through a window of up to winEnd: sm.step touches
// only SM-private state (warp tables, pipes, gating controllers, L1, MSHR)
// and *stages* global-memory requests on its port (sm.memStage) instead of
// calling the shared L2/DRAM inline. A staging cycle whose lines all hit the
// L1 or merge with the SM's own outstanding fills touches nothing shared, so
// the worker finishes it locally and keeps stepping; a cycle that needs the
// device parks the SM (pendingAt[i]) until the coordinator replays its ops.
// Stepping SMs at their own positions rather than a global clock is exact
// because each SM steps every cycle of its window, one cycle per step, just
// as the serial loop steps it, and a step reads no other SM's state: the only
// shared state is the L2/DRAM, which only the ordered resolve below touches.
//
// Coordinator resolve. Staged device ops must hit the shared L2/DRAM in the
// serial engine's order: ascending (cycle, SM id, staging index). An op
// staged at cycle c is resolvable only once every live unparked SM has
// advanced past c (c < frontier) — nothing can stage at ≤ c anymore. The
// coordinator resolves every SM parked at the earliest parked cycle (pmin)
// in ascending SM id, in place, and repeats while the next parked cycle is
// resolvable; the earliest parked op is always resolvable once the frontier
// passes it, so the engine cannot stall. All resolvable ops share one cycle
// and amount to a few L2/DRAM lookups per parked SM, so resolving them costs
// no extra barrier round.
//
// The determinism argument rests on two properties of sm.step — it touches
// nothing outside its SM once memory is staged, and everything resolution
// patches is only read by a later step — plus the frontier ordering rule
// above. The worker count is fixed at launch; it moves claim order only,
// never an op's resolve cycle.

// spinYield is how many barrier polls a worker burns before yielding the
// processor. Small enough to stay polite on oversubscribed machines, large
// enough to catch the common case where the coordinator section is a few
// hundred nanoseconds.
const spinYield = 64

// shardResult is one worker's per-compute-phase contribution, padded to a
// cache line so workers never write-share: how many of its SMs drained and
// the latest cycle one drained at.
type shardResult struct {
	drained  int64
	maxDrain int64
	_        [48]byte
}

// parRun is the shared state of one parallel run. The scalar fields are
// owned by the coordinator section; workers read them only after observing
// the epoch advance that the coordinator precedes. pos and pendingAt slots
// are handed back and forth between an SM's owning worker and the
// coordinator across the same barrier.
type parRun struct {
	g *GPU
	// ctxDone is the run context's cancellation channel (nil when the context
	// cannot be canceled); the coordinator polls it once per barrier round and
	// flips canceled, which exits every worker within one compute window.
	ctxDone  <-chan struct{}
	canceled bool

	workers   int32 // worker population, fixed at launch
	maxCycles int64
	batch     int64 // compute window length (cfg.EffectiveBatchCycles)
	shards    []shardResult

	arrived atomic.Int32
	epoch   atomic.Uint32
	// claim is the shared steal index: the next SM index to step this compute
	// window. The coordinator resets it to zero when it opens a window.
	claim atomic.Int64

	exit   bool  // set by the coordinator when the run is over
	winEnd int64 // first cycle past the current compute window

	pos       []int64 // per SM: next cycle to step
	pendingAt []int64 // per SM: cycle of its parked staged ops, -1 = none

	live     int
	maxDrain int64
}

// runParallel is the parallel counterpart of the serial loop in Run.
func (g *GPU) runParallel(ctx context.Context, workers int) (*Report, error) {
	live := 0
	for _, sm := range g.sms {
		if sm.done() {
			sm.drained = true
		} else {
			live++
		}
		sm.memStage = true
	}
	var canceled bool
	if live > 0 {
		pr := &parRun{
			g:         g,
			ctxDone:   ctx.Done(),
			workers:   int32(workers),
			maxCycles: int64(g.cfg.MaxCycles),
			batch:     int64(g.cfg.EffectiveBatchCycles()),
			shards:    make([]shardResult, workers),
			pos:       make([]int64, len(g.sms)),
			pendingAt: make([]int64, len(g.sms)),
			live:      live,
			maxDrain:  -1,
		}
		for i := range g.sms {
			pr.pos[i] = g.cycle
			pr.pendingAt[i] = -1
		}
		pr.winEnd = g.cycle + pr.batch
		if pr.maxCycles > 0 && pr.winEnd > pr.maxCycles {
			pr.winEnd = pr.maxCycles
		}
		var wg sync.WaitGroup
		for w := 1; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				pr.worker(w)
			}(w)
		}
		pr.worker(0)
		wg.Wait()
		canceled = pr.canceled
	}
	for _, sm := range g.sms {
		sm.finish()
		sm.memStage = false
		sm.memPort.DropStaged()
		sm.stagedRet = sm.stagedRet[:0]
	}
	if canceled {
		return nil, g.canceled(ctx)
	}
	return g.report(), nil
}

// worker runs compute phases until the coordinator schedules exit. The last
// worker to arrive at the barrier runs the coordinator section and releases
// the others by advancing the epoch.
func (pr *parRun) worker(w int) {
	var sentinel uint32
	for {
		pr.compute(w)
		if pr.arrived.Add(1) == pr.workers {
			pr.advance()
			pr.arrived.Store(0)
			pr.epoch.Add(1)
		} else {
			for spins := 0; pr.epoch.Load() == sentinel; spins++ {
				if spins >= spinYield {
					runtime.Gosched()
				}
			}
		}
		sentinel++
		if pr.exit {
			return
		}
	}
}

// compute steps SMs through the current window, claimed one at a time from
// the shared steal index. Each SM steps from its own position until the
// window ends, it drains, or it stages a device access and parks. Pure-L1
// staging cycles are resolved inline: they read nothing shared, and the
// merge fills they look up cannot be unpatched sentinels because the SM parks
// before any unresolved device op could linger.
func (pr *parRun) compute(w int) {
	g := pr.g
	end := pr.winEnd
	n := len(g.sms)
	var drained int64
	maxDrain := int64(-1)
	for {
		i := int(pr.claim.Add(1)) - 1
		if i >= n {
			break
		}
		sm := g.sms[i]
		if sm.drained || pr.pendingAt[i] >= 0 {
			continue
		}
		c := pr.pos[i]
		for c < end {
			stepped := c
			sm.step(stepped)
			c++
			if len(sm.stagedRet) > 0 && !sm.memPort.HasStagedDevice() {
				sm.resolveMemory()
			}
			parked := sm.memPort.HasStagedDevice()
			if parked {
				pr.pendingAt[i] = stepped
			}
			if sm.drained {
				drained++
				if stepped > maxDrain {
					maxDrain = stepped
				}
				break
			}
			if parked {
				break
			}
		}
		pr.pos[i] = c
	}
	s := &pr.shards[w]
	s.drained, s.maxDrain = drained, maxDrain
}

// advance is the coordinator section, run once per barrier with every worker
// parked: fold the phase's results, resolve parked staged ops, decide
// termination, or open the next compute window. It polls the run context
// first — one poll per barrier round bounds cancellation latency to a single
// compute window without touching the workers' hot loops.
func (pr *parRun) advance() {
	g := pr.g
	if pr.ctxDone != nil {
		select {
		case <-pr.ctxDone:
			pr.canceled = true
			pr.exit = true
			return
		default:
		}
	}
	for i := range pr.shards {
		s := &pr.shards[i]
		pr.live -= int(s.drained)
		if s.maxDrain > pr.maxDrain {
			pr.maxDrain = s.maxDrain
		}
		s.drained, s.maxDrain = 0, -1
	}
	for {
		// frontier is the earliest cycle any unparked live SM will step
		// next; pmin is the earliest parked staging cycle. Parked SMs are
		// excluded from the frontier (they stage nothing until resolved), as
		// are drained ones — if only parked SMs remain it is unbounded.
		frontier := int64(math.MaxInt64)
		pmin := int64(math.MaxInt64)
		pendingN := 0
		for i, sm := range g.sms {
			if at := pr.pendingAt[i]; at >= 0 {
				pendingN++
				if at < pmin {
					pmin = at
				}
				continue
			}
			if sm.drained {
				continue
			}
			if pr.pos[i] < frontier {
				frontier = pr.pos[i]
			}
		}
		if pmin < frontier {
			// Resolve only the ops at the earliest parked cycle: no unparked
			// SM can stage at or before it (frontier), and every other
			// parked SM resumes after its own later cycle — whereas a
			// later-cycle op is not safe yet, because the SM parked at pmin
			// resumes at pmin+1 and may stage again in between.
			for i, sm := range g.sms {
				if pr.pendingAt[i] == pmin {
					sm.resolveMemory()
					pr.pendingAt[i] = -1
				}
			}
			continue // the resolved SMs may unblock the next parked cycle
		}
		// No resolvable ops and none parked below the frontier: termination
		// has the serial loop's semantics. A run whose last SM drains ends one
		// cycle past the drain (windows never cross MaxCycles, so neither
		// does that clock); a run whose every SM sits at the cap with work
		// left ran out.
		if pr.live == 0 && pendingN == 0 {
			g.cycle = pr.maxDrain + 1
			pr.exit = true
			return
		}
		if pr.maxCycles > 0 && frontier >= pr.maxCycles && pendingN == 0 {
			g.cycle = pr.maxCycles
			g.ranOut = true
			pr.exit = true
			return
		}
		g.cycle = frontier
		end := frontier + pr.batch
		if pendingN > 0 && pmin+1 < end {
			// An SM is still parked beyond the frontier: its ops unblock the
			// moment every other SM passes its cycle, so stop the window
			// right there instead of letting the leaders run a full batch
			// while it idles. (pmin >= frontier here — anything earlier was
			// resolved above — so the window still advances.)
			end = pmin + 1
		}
		if pr.maxCycles > 0 && end > pr.maxCycles {
			end = pr.maxCycles
		}
		pr.claim.Store(0)
		pr.winEnd = end
		return
	}
}
