package sim

import (
	"fmt"
	"math/bits"

	"warpedgates/internal/config"
	"warpedgates/internal/gating"
	"warpedgates/internal/isa"
	"warpedgates/internal/kernels"
	"warpedgates/internal/mem"
	"warpedgates/internal/sched"
	"warpedgates/internal/stats"
)

// retireRingSize bounds how far in the future a writeback can be scheduled;
// it must exceed the worst-case memory completion horizon (DRAM latency plus
// maximal channel queueing). Power of two for cheap masking.
const retireRingSize = 1 << 14

// retireEvent is a scheduled writeback: clear dstMask in the warp's
// scoreboard, guarded by the warp-slot generation to survive slot reuse.
// Events live in a per-SM free-list arena (retirePool) and chain through
// next, so scheduling one never allocates once the pool has grown to the
// SM's maximum in-flight count — a slice-of-slices ring converges on zero
// allocations only asymptotically, as random completion bursts keep finding
// buckets below their high-water capacity.
type retireEvent struct {
	warp    *Warp
	gen     uint32
	dstMask uint64
	next    int32 // pool index of the next event in the same bucket, -1 ends
}

// stagedRetire is the SM-side record of one staged global access: the warp
// whose load writeback must be booked once resolve computes the access's
// completion cycle, and the cycle the access was issued.
// Stores stage too (they occupy MSHR entries and reach the device) but have
// no destination, so their dstMask is zero.
type stagedRetire struct {
	w       *Warp
	at      int64
	dstMask uint64
}

// SMStats aggregates the per-SM counters the figures are computed from.
type SMStats struct {
	Cycles          int64
	IssuedByClass   [isa.NumClasses]uint64
	IssuedTotal     uint64
	ActiveWarpSum   uint64 // sum over cycles of active-set size (Fig. 5b avg)
	ActiveWarpMax   int    // peak active-set size (Fig. 5b max)
	IssueStallsMem  uint64 // candidate failed on MSHR/port hazard
	IssueStallsGate uint64 // candidate failed because all target pipes were gated
	CTAsCompleted   int
}

// SM is one streaming multiprocessor: warp table, dual schedulers, execution
// pipes with per-domain gating controllers, and a private memory port.
//
// The per-cycle hot path runs on incrementally maintained state instead of
// rescans: warp readiness lives in uint64 bitsets and per-class counters that
// are updated at the transition points (launch, issue, writeback, finish) by
// refreshWarp. Every step simulates exactly one cycle, so the per-cycle idle
// structure the gating controllers measure is observed directly.
type SM struct {
	id  int
	cfg config.Config

	kernel *kernels.Kernel
	warps  []*Warp

	// ctasRemaining counts CTAs not yet launched; ctaLive tracks live warps
	// per resident CTA slot so finished CTAs can be replaced.
	ctasRemaining int
	ctaLive       []int
	warpSeq       uint64 // monotonically increasing warp launch counter

	// Incrementally maintained warp-table state (the paper's ACTV/RDY
	// registers, kept exact at every mutation instead of recomputed):
	// bit i of each mask refers to warp slot i, hence the 64-warp bound
	// enforced by config.Validate.
	activeMask uint64              // state == WarpActive
	readyMask  uint64              // ready(): active and no blocking operand
	liveMask   uint64              // active or pending-mem
	actv       [isa.NumClasses]int // active warps per next-instruction class
	rdy        [isa.NumClasses]int // ready warps per next-instruction class
	warpClass  []isa.Class         // next-instruction class per active warp
	emptySlots int                 // CTA slots currently holding no live warps
	drained    bool                // all CTAs launched and every warp finished

	policies []sched.Policy
	gatesPol *sched.GATES // non-nil when the GATES policy is active
	slotMask []uint64     // per scheduler slot: the bits of its warps

	intPipes []*Pipe
	fpPipes  []*Pipe
	sfuPipe  *Pipe
	ldstPipe *Pipe

	// pipes is the fixed all-pipes order (INT clusters, FP clusters, SFU,
	// LDST) used by ticking, probes and reporting; sfuPipes/ldstPipes are
	// the single-element views signalReadyDemand needs. All precomputed so
	// the hot path never allocates.
	pipes     []*Pipe
	sfuPipes  []*Pipe
	ldstPipes []*Pipe

	intCoord *gating.Coordinator
	fpCoord  *gating.Coordinator
	intAdapt *gating.AdaptiveIdleDetect
	fpAdapt  *gating.AdaptiveIdleDetect

	memPort   *mem.SMPort
	coalescer *mem.Coalescer

	// retireHead holds each bucket's event-list head as a retirePool index
	// (-1 = empty); retireFree heads the free list threaded through the same
	// pool.
	retireHead [retireRingSize]int32
	retirePool []retireEvent
	retireFree int32

	// candBuf holds reusable candidate slices, one per scheduler slot.
	candBuf [][]sched.Candidate
	// memBlocked marks that a global access already failed MSHR admission
	// this cycle; the MSHR is SM-wide, so further LDST candidates are
	// skipped until next cycle.
	memBlocked bool

	// memStage, set by the parallel engine, makes issueMemory stage global
	// accesses on the port instead of resolving them inline; resolveMemory
	// later replays them and books the deferred load writebacks. stagedRet
	// records one entry per staged access, in staging order (dstMask 0 for
	// stores).
	memStage  bool
	stagedRet []stagedRetire

	benchSeed uint64
	st        SMStats
	smState   sched.SMState
	tracer    IssueTracer
	probe     CycleProbe
	laneBuf   []LaneState

	// prevCritINT/FP hold the previous cumulative critical-wakeup counts so
	// the adaptive mechanism can be fed per-cycle deltas.
	prevCritINT uint64
	prevCritFP  uint64
}

// newSM builds one SM with its pipes, controllers and scheduler slots.
func newSM(id int, cfg config.Config, k *kernels.Kernel, gpuMem *mem.GPUMem, benchSeed uint64) *SM {
	sm := &SM{
		id:        id,
		cfg:       cfg,
		kernel:    k,
		memPort:   mem.NewSMPort(cfg, gpuMem),
		coalescer: mem.NewCoalescer(),
		benchSeed: benchSeed,
	}
	for i := range sm.retireHead {
		sm.retireHead[i] = -1
	}
	sm.retireFree = -1

	// Adaptive idle-detect state is per instruction type (paper §5.1:
	// "different idle-detect values for INT and FP").
	sm.intAdapt = gating.NewAdaptiveIdleDetect(cfg)
	sm.fpAdapt = gating.NewAdaptiveIdleDetect(cfg)

	mkCtrl := func(kind config.GatingKind, idle func() int) *gating.Controller {
		return gating.NewController(kind, idle, cfg.BreakEven, cfg.WakeupDelay)
	}
	// SFU and LDST are gated conventionally whenever gating is enabled: the
	// paper's blackout machinery targets the clustered INT/FP CUDA cores
	// (§3: conventional gating suffices for the rare SFU traffic). The
	// BlackoutAux extension applies Naive Blackout there as well (single
	// clusters cannot be coordinated).
	auxKind := cfg.Gating
	if auxKind == config.GateNaiveBlackout || auxKind == config.GateCoordBlackout {
		if cfg.BlackoutAux {
			auxKind = config.GateNaiveBlackout
		} else {
			auxKind = config.GateConventional
		}
	}
	fixedIdle := func() int { return cfg.IdleDetect }

	var intCtrls, fpCtrls []*gating.Controller
	for c := 0; c < cfg.NumSPClusters; c++ {
		ic := mkCtrl(cfg.Gating, sm.intAdapt.Value)
		fc := mkCtrl(cfg.Gating, sm.fpAdapt.Value)
		intCtrls = append(intCtrls, ic)
		fpCtrls = append(fpCtrls, fc)
		sm.intPipes = append(sm.intPipes, newPipe(isa.INT, c, ic))
		sm.fpPipes = append(sm.fpPipes, newPipe(isa.FP, c, fc))
	}
	sm.intCoord = gating.NewCoordinator(cfg.Gating, intCtrls...)
	sm.fpCoord = gating.NewCoordinator(cfg.Gating, fpCtrls...)
	sm.sfuPipe = newPipe(isa.SFU, 0, mkCtrl(auxKind, fixedIdle))
	sm.ldstPipe = newPipe(isa.LDST, 0, mkCtrl(auxKind, fixedIdle))

	sm.pipes = make([]*Pipe, 0, len(sm.intPipes)+len(sm.fpPipes)+2)
	sm.pipes = append(sm.pipes, sm.intPipes...)
	sm.pipes = append(sm.pipes, sm.fpPipes...)
	sm.pipes = append(sm.pipes, sm.sfuPipe, sm.ldstPipe)
	sm.sfuPipes = []*Pipe{sm.sfuPipe}
	sm.ldstPipes = []*Pipe{sm.ldstPipe}
	sm.laneBuf = make([]LaneState, 0, len(sm.pipes))

	// Scheduler slots. GATES shares one priority register per SM (Fig. 7),
	// so a single policy instance serves both slots.
	switch cfg.Scheduler {
	case config.SchedGATES:
		g := sched.NewGATES()
		g.MaxHold = cfg.GATESMaxHold
		sm.gatesPol = g
		for i := 0; i < cfg.NumSchedulers; i++ {
			sm.policies = append(sm.policies, g)
		}
	case config.SchedLRR:
		for i := 0; i < cfg.NumSchedulers; i++ {
			sm.policies = append(sm.policies, sched.NewLRR())
		}
	default:
		for i := 0; i < cfg.NumSchedulers; i++ {
			sm.policies = append(sm.policies, sched.NewTwoLevel())
		}
	}

	// Warp table: enough slots for the resident CTAs, capped by the SM limit.
	conc := k.MaxConcurrentCTAs
	if max := cfg.MaxWarpsPerSM / k.WarpsPerCTA; conc > max && max > 0 {
		conc = max
	}
	if conc == 0 {
		conc = 1
	}
	nWarps := conc * k.WarpsPerCTA
	if nWarps > cfg.MaxWarpsPerSM {
		nWarps = cfg.MaxWarpsPerSM
	}
	if nWarps > 64 {
		panic(fmt.Sprintf("sim: warp table of %d slots exceeds the 64-bit scheduler bitsets", nWarps))
	}
	sm.warps = make([]*Warp, nWarps)
	for i := range sm.warps {
		sm.warps[i] = &Warp{id: i, state: WarpIdleSlot}
	}
	sm.warpClass = make([]isa.Class, nWarps)
	sm.ctaLive = make([]int, conc)
	sm.ctasRemaining = k.CTAsPerSM
	sm.emptySlots = conc
	sm.smState.NumWarps = nWarps

	// Scheduler-slot warp partitions and candidate buffers, sized up front so
	// the issue stage never allocates.
	nsched := len(sm.policies)
	sm.slotMask = make([]uint64, nsched)
	for i := 0; i < nWarps; i++ {
		sm.slotMask[i%nsched] |= 1 << uint(i)
	}
	sm.candBuf = make([][]sched.Candidate, nsched)
	for s := range sm.candBuf {
		sm.candBuf[s] = make([]sched.Candidate, 0, (nWarps+nsched-1)/nsched)
	}

	// Launch the first wave.
	for slot := 0; slot < conc; slot++ {
		sm.launchCTA(slot)
	}
	return sm
}

// launchCTA fills CTA slot with fresh warps, if work remains.
func (sm *SM) launchCTA(slot int) {
	if sm.ctasRemaining <= 0 {
		return
	}
	sm.ctasRemaining--
	w0 := slot * sm.kernel.WarpsPerCTA
	n := sm.kernel.WarpsPerCTA
	launched := 0
	for i := 0; i < n && w0+i < len(sm.warps); i++ {
		w := sm.warps[w0+i]
		seed := stats.CombineSeeds(sm.benchSeed, uint64(sm.id)<<32, sm.warpSeq)
		w.reset(sm.kernel, slot, sm.warpSeq, seed)
		sm.warpSeq++
		sm.ctaLive[slot]++
		sm.refreshWarp(w0 + i)
		launched++
	}
	if launched > 0 {
		sm.emptySlots--
	}
}

// refreshWarp re-derives warp i's contribution to the scheduler bitsets and
// per-class counters from its current state. It must be called after every
// mutation that can change the warp's state, readiness or next-instruction
// class: CTA launch, issue (advance + set membership), and writeback.
func (sm *SM) refreshWarp(i int) {
	bit := uint64(1) << uint(i)
	if sm.activeMask&bit != 0 {
		c := sm.warpClass[i]
		sm.actv[c]--
		if sm.readyMask&bit != 0 {
			sm.rdy[c]--
		}
	}
	sm.activeMask &^= bit
	sm.readyMask &^= bit
	sm.liveMask &^= bit
	w := sm.warps[i]
	switch w.state {
	case WarpActive:
		sm.liveMask |= bit
		sm.activeMask |= bit
		c := w.current().Class()
		sm.warpClass[i] = c
		sm.actv[c]++
		if w.blockedMask() == 0 {
			sm.readyMask |= bit
			sm.rdy[c]++
		}
	case WarpPendingMem:
		sm.liveMask |= bit
	}
}

// done reports whether the SM has drained all its work.
func (sm *SM) done() bool {
	return sm.ctasRemaining <= 0 && sm.liveMask == 0
}

// step simulates cycle now on the SM.
func (sm *SM) step(now int64) {
	sm.st.Cycles++
	sm.memPort.Expire(now)
	sm.writeback(now)
	sm.replaceCTAs()
	sm.refreshCounters()
	if sm.gatesPol != nil {
		sm.gatesPol.UpdatePriority(&sm.smState)
	}
	sm.issue(now)
	sm.tickGating(now)
	sm.emitProbe(now)
}

// emitProbe reports the per-lane gating states for cycle now.
func (sm *SM) emitProbe(now int64) {
	if sm.probe == nil {
		return
	}
	sm.laneBuf = sm.laneBuf[:0]
	for _, p := range sm.pipes {
		sm.laneBuf = append(sm.laneBuf, LaneState{
			Class:   p.Class(),
			Cluster: p.Cluster(),
			Busy:    p.Busy(now),
			State:   p.Gate().State(),
		})
	}
	sm.probe(sm.id, now, sm.laneBuf)
}

// writeback retires all operations completing at cycle now. Within-bucket
// order is irrelevant: each event only clears its own warp's scoreboard
// bits, and nothing observes the intermediate states.
func (sm *SM) writeback(now int64) {
	idx := now & (retireRingSize - 1)
	n := sm.retireHead[idx]
	if n < 0 {
		return
	}
	for n >= 0 {
		ev := &sm.retirePool[n]
		if ev.gen == ev.warp.gen {
			ev.warp.clearPending(ev.dstMask)
			sm.refreshWarp(ev.warp.id)
		}
		next := ev.next
		ev.next = sm.retireFree
		sm.retireFree = n
		n = next
	}
	sm.retireHead[idx] = -1
}

// scheduleRetire books a future writeback at cycle at (scheduled at cycle
// now). Events outside the ring horizon would silently alias a past bucket
// and corrupt the scoreboard, so they panic instead.
func (sm *SM) scheduleRetire(now, at int64, w *Warp, dstMask uint64) {
	if dstMask == 0 {
		return
	}
	delta := at - now
	if delta <= 0 || delta >= retireRingSize {
		panic(fmt.Sprintf("sim: retire scheduled %d cycles ahead, outside the ring horizon [1,%d)",
			delta, retireRingSize))
	}
	idx := at & (retireRingSize - 1)
	n := sm.retireFree
	if n >= 0 {
		sm.retireFree = sm.retirePool[n].next
	} else {
		// Pool exhausted: grow it. This stops happening once the pool
		// reaches the SM's maximum in-flight event count (a few hundred,
		// bounded by warps × scoreboard width), after which the steady
		// state is allocation-free.
		sm.retirePool = append(sm.retirePool, retireEvent{})
		n = int32(len(sm.retirePool) - 1)
	}
	ev := &sm.retirePool[n]
	ev.warp, ev.gen, ev.dstMask = w, w.gen, dstMask
	ev.next = sm.retireHead[idx]
	sm.retireHead[idx] = n
}

// replaceCTAs launches queued CTAs into drained slots.
func (sm *SM) replaceCTAs() {
	if sm.ctasRemaining <= 0 || sm.emptySlots == 0 {
		return
	}
	for slot := range sm.ctaLive {
		if sm.ctaLive[slot] != 0 {
			continue
		}
		sm.launchCTA(slot)
	}
}

// refreshCounters publishes the incrementally maintained per-type counters to
// the scheduler-visible snapshot (the paper's ACTV and RDY registers) and
// samples occupancy statistics.
func (sm *SM) refreshCounters() {
	sm.smState.ACTV = sm.actv
	sm.smState.RDY = sm.rdy
	sm.smState.AllBlackout[isa.INT] = sm.intCoord.AllInBlackout()
	sm.smState.AllBlackout[isa.FP] = sm.fpCoord.AllInBlackout()
	sm.smState.AllBlackout[isa.SFU] = false
	sm.smState.AllBlackout[isa.LDST] = false

	active := bits.OnesCount64(sm.activeMask)
	sm.st.ActiveWarpSum += uint64(active)
	if active > sm.st.ActiveWarpMax {
		sm.st.ActiveWarpMax = active
	}
}

// issue runs the SM's scheduler slots for one cycle. Warps are statically
// partitioned between the slots by warp index, as in Fermi.
func (sm *SM) issue(now int64) {
	sm.memBlocked = false
	for s := range sm.policies {
		cands := sm.candidates(s)
		if len(cands) == 0 {
			continue
		}
		pol := sm.policies[s]
		pol.Arrange(cands, &sm.smState)
		for _, c := range cands {
			if sm.tryIssue(now, c) {
				pol.OnIssue(c)
				break
			}
		}
	}
}

// candidates collects ready warps belonging to scheduler slot s into the
// slot's reusable buffer, in ascending warp order (the bitset walk matches
// the old striped table scan).
func (sm *SM) candidates(s int) []sched.Candidate {
	out := sm.candBuf[s][:0]
	for m := sm.readyMask & sm.slotMask[s]; m != 0; m &= m - 1 {
		i := bits.TrailingZeros64(m)
		out = append(out, sched.Candidate{WarpIdx: i, Class: sm.warpClass[i]})
	}
	sm.candBuf[s] = out
	return out
}

// tryIssue attempts to issue warp c's next instruction; it returns false on
// structural or gating hazards, in which case the arbiter tries the next
// candidate (the heterogeneity that hides Blackout's latency, §5).
func (sm *SM) tryIssue(now int64, c sched.Candidate) bool {
	w := sm.warps[c.WarpIdx]
	in := w.current()
	if in == nil {
		return false
	}
	switch in.Class() {
	case isa.INT:
		return sm.issueALU(now, w, in, sm.intPipes)
	case isa.FP:
		return sm.issueALU(now, w, in, sm.fpPipes)
	case isa.SFU:
		return sm.issueSingle(now, w, in, sm.sfuPipe)
	case isa.LDST:
		return sm.issueMemory(now, w, in)
	}
	panic(fmt.Sprintf("sim: unknown class %v", in.Class()))
}

// issueALU places an INT/FP instruction on one of the class's clusters.
// Cluster preference is static (lowest index first): consolidating work onto
// one cluster instead of balancing it coalesces the other cluster's idle
// cycles into long gateable runs — the asymmetry Coordinated Blackout is
// built around (one cluster powered and serving work, the peer sleeping).
// When every cluster is gated or port-busy, a wakeup demand is raised on the
// most wakeable gated cluster.
func (sm *SM) issueALU(now int64, w *Warp, in *isa.Instr, pipes []*Pipe) bool {
	for _, p := range pipes {
		if p.CanStart(now) {
			sm.commitIssue(now, w, in, p, in.InitiationInterval(), in.Latency())
			return true
		}
	}
	sm.noteGateStall()
	return false
}

// issueSingle places an instruction on a single-cluster pipe (SFU).
func (sm *SM) issueSingle(now int64, w *Warp, in *isa.Instr, p *Pipe) bool {
	if p.CanStart(now) {
		sm.commitIssue(now, w, in, p, in.InitiationInterval(), in.Latency())
		return true
	}
	sm.noteGateStall()
	return false
}

// issueMemory handles LDST instructions: coalescing, MSHR admission, and
// completion scheduling through the memory subsystem.
func (sm *SM) issueMemory(now int64, w *Warp, in *isa.Instr) bool {
	p := sm.ldstPipe
	if !p.CanStart(now) {
		sm.noteGateStall()
		return false
	}
	if in.Space == isa.SpaceShared {
		complete := sm.memPort.SharedAccess(now)
		sm.commitIssue(now, w, in, p, in.InitiationInterval(), in.Latency())
		if isa.IsLoad(in.Op) {
			sm.scheduleRetire(now, complete, w, 1<<uint(in.Dst))
		}
		return true
	}
	// Global/local access: coalesce (cached across structural retries) then
	// check MSHR admission.
	if sm.memBlocked {
		sm.st.IssueStallsMem++
		return false
	}
	if !w.memLinesValid {
		base := w.globalSeq*97 + w.memCounter
		w.memLines = sm.coalescer.AppendTransactions(w.memLines[:0],
			in.Pattern, in.Region, base, sm.kernel.WorkingSetLines, &w.rng)
		w.memLinesValid = true
	}
	lines := w.memLines
	if !sm.memPort.CanIssueGlobal(lines) {
		sm.st.IssueStallsMem++
		sm.memBlocked = true
		return false
	}
	// The pipe occupancy and issue latency depend only on the transaction
	// fan-out, never on where the lines hit — which is what lets the parallel
	// engine finish the cycle before the shared device has answered.
	ii := len(lines)
	if ii < 1 {
		ii = 1
	}
	latency := in.Latency() + ii - 1
	var dstMask uint64
	if isa.IsLoad(in.Op) {
		dstMask = 1 << uint(in.Dst)
	}
	if sm.memStage {
		sm.memPort.StageGlobal(now, lines)
		sm.stagedRet = append(sm.stagedRet, stagedRetire{w: w, at: now, dstMask: dstMask})
		w.memCounter++
		w.memLinesValid = false
		sm.commitIssue(now, w, in, p, ii, latency)
		return true
	}
	res := sm.memPort.GlobalAccess(now, lines)
	w.memCounter++
	w.memLinesValid = false
	sm.commitIssue(now, w, in, p, ii, latency)
	sm.scheduleRetire(now, res.CompleteAt, w, dstMask)
	return true
}

// resolveMemory resolves the SM's staged global accesses and books the
// deferred load writebacks. The owning worker calls it for staging cycles
// that touch nothing shared (no device ops); accesses that need the device
// are resolved by the parallel engine's coordinator while every worker is
// parked at the barrier. Deferring scheduleRetire past the end of step is
// invisible: the retire ring is only read by a later step's writeback, which
// runs afterwards.
func (sm *SM) resolveMemory() {
	if len(sm.stagedRet) == 0 {
		return
	}
	sm.memPort.ResolveStaged(func(i int, res mem.Result) {
		r := sm.stagedRet[i]
		sm.scheduleRetire(r.at, res.CompleteAt, r.w, r.dstMask)
	})
	sm.stagedRet = sm.stagedRet[:0]
}

// commitIssue performs the bookkeeping common to every successful issue.
// Non-memory register results retire after the op latency; memory loads are
// scheduled separately by the caller (their latency comes from the memory
// model), so here only ALU/SFU destinations are booked.
func (sm *SM) commitIssue(now int64, w *Warp, in *isa.Instr, p *Pipe, ii, latency int) {
	dstMask := in.DstMask()
	finished := w.advance(in)
	if dstMask != 0 && !isa.IsMemory(in.Op) {
		sm.scheduleRetire(now, now+int64(latency), w, dstMask)
	}
	p.Start(now, in.Op, ii, latency)
	if sm.tracer != nil {
		sm.tracer(sm.id, now, w.id, in.Class(), p.Cluster())
	}
	sm.st.IssuedByClass[in.Class()]++
	sm.st.IssuedTotal++
	if finished {
		sm.refreshWarp(w.id)
		sm.ctaLive[w.ctaSlot]--
		if sm.ctaLive[w.ctaSlot] < 0 {
			panic("sim: CTA live count underflow")
		}
		if sm.ctaLive[w.ctaSlot] == 0 {
			sm.st.CTAsCompleted++
			sm.emptySlots++
			if sm.ctasRemaining <= 0 && sm.liveMask == 0 {
				// The transition point GPU.Run's live-SM count hinges on:
				// the last warp of the last CTA just finished.
				sm.drained = true
			}
		}
	} else {
		w.refreshState()
		sm.refreshWarp(w.id)
	}
}

// noteGateStall records that a ready instruction could not issue because
// its pipes were gated or port-busy (statistics only; wakeup demand itself
// is driven by the per-class ready-detect logic in signalReadyDemand,
// matching the paper's Figure 7 where the power-gating controller watches
// the ready counters, not the issue arbiter).
func (sm *SM) noteGateStall() {
	sm.st.IssueStallsGate++
}

// signalReadyDemand implements the ready-instruction detect logic of
// conventional power gating (Hu et al., and the paper's Fig. 7 PG_logic):
// whenever at least one ready instruction of a class exists and no powered
// pipe of the class can serve it, a wakeup demand is raised on the most
// wakeable gated pipe (compensated first, then — meaningful only under
// conventional rules — uncompensated). Exactly one pipe per class receives
// the demand so wakeup statistics are not double counted. Because demand is
// derived from readiness rather than from arbiter walk order, a unit whose
// type is currently de-prioritized by GATES starts waking while the other
// type's phase is still draining, hiding the wakeup delay.
func (sm *SM) signalReadyDemand(rdy [isa.NumClasses]int, class isa.Class, pipes []*Pipe) {
	if rdy[class] == 0 {
		return
	}
	// A unit wakes only when the powered pipes of its class cannot serve
	// the ready work: the wanted pipe count is bounded by both the ready
	// count and the SM's issue width. Without this bound the ready-detect
	// logic thrashes the sleep switch (a gated cluster would wake on every
	// cycle any warp of its type is ready, even with a powered peer
	// serving it) and every technique's savings collapse below zero.
	want := rdy[class]
	if w := len(sm.policies); want > w {
		want = w
	}
	if want > len(pipes) {
		want = len(pipes)
	}
	serving := 0
	for _, p := range pipes {
		if st := p.Gate().State(); st == gating.StActive || st == gating.StWakeup {
			serving++
		}
	}
	if serving >= want {
		return
	}
	var fallback *Pipe
	for _, p := range pipes {
		switch p.Gate().State() {
		case gating.StCompensated:
			p.Gate().RequestIssue()
			return
		case gating.StUncompensated:
			if fallback == nil {
				fallback = p
			}
		}
	}
	if fallback != nil {
		fallback.Gate().RequestIssue()
	}
}

// tickGating advances every gating controller and the adaptive windows. The
// live rdy counters already reflect this cycle's issues (refreshWarp runs at
// commit), so a warp that just issued is no longer waiting and must not wake
// a gated unit — the same post-issue view the old re-scan derived.
func (sm *SM) tickGating(now int64) {
	sm.signalReadyDemand(sm.rdy, isa.INT, sm.intPipes)
	sm.signalReadyDemand(sm.rdy, isa.FP, sm.fpPipes)
	sm.signalReadyDemand(sm.rdy, isa.SFU, sm.sfuPipes)
	sm.signalReadyDemand(sm.rdy, isa.LDST, sm.ldstPipes)
	// The coordinator sees the pre-issue ACTV snapshot (the register that
	// was latched when the cycle began), not the live post-issue counters.
	sm.intCoord.PreTick(sm.smState.ACTV[isa.INT])
	sm.fpCoord.PreTick(sm.smState.ACTV[isa.FP])
	for _, p := range sm.pipes {
		p.Gate().Tick(p.Busy(now))
	}

	// Feed per-cycle critical-wakeup deltas to the adaptive windows.
	curINT := sumCriticals(sm.intPipes)
	curFP := sumCriticals(sm.fpPipes)
	sm.intAdapt.Tick(int(curINT - sm.prevCritINT))
	sm.fpAdapt.Tick(int(curFP - sm.prevCritFP))
	sm.prevCritINT = curINT
	sm.prevCritFP = curFP
}

// sumCriticals totals critical wakeups across a class's pipes.
func sumCriticals(pipes []*Pipe) uint64 {
	var n uint64
	for _, p := range pipes {
		n += p.Gate().Stats().CriticalWakeups
	}
	return n
}

// finish closes open idle runs so histograms account for every cycle.
func (sm *SM) finish() {
	for _, p := range sm.pipes {
		p.Gate().Finish()
	}
}

// allPipes returns every pipe of the SM in the fixed reporting order.
func (sm *SM) allPipes() []*Pipe { return sm.pipes }

// Stats returns the SM's counters.
func (sm *SM) Stats() SMStats { return sm.st }
