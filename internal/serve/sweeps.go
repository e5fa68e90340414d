package serve

import (
	"context"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"time"

	"warpedgates/internal/core"
	"warpedgates/internal/store"
	"warpedgates/internal/sweep"
)

// maxSweeps bounds the sweep registry; the oldest fully-terminal sweeps are
// pruned past it. Their cells' reports remain fetchable — report IDs are
// store addresses, exactly as for pruned jobs.
const maxSweeps = 64

// SweepRequest is the POST /v1/sweeps body: the declarative parameter grid
// (the same axes and JSON names as the CLI's sweep spec file), an optional
// shard of the sorted job-key space, and a per-cell deadline. The whole spec
// is validated at submission — a spec whose cells cannot all pass config
// validation is rejected up front rather than failing cell by cell.
type SweepRequest struct {
	sweep.Spec
	// ShardIndex/ShardCount select shard i of n over the sorted job-key
	// space; both zero means the whole grid.
	ShardIndex int `json:"shard_index,omitempty"`
	ShardCount int `json:"shard_count,omitempty"`
	// DeadlineMS bounds each cell's wall-clock runtime, like a job's.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
}

// SweepStatus is the status JSON for one sweep — the GET /v1/sweeps/{id}
// body and the POST /v1/sweeps response.
type SweepStatus struct {
	ID string `json:"id"`
	// State aggregates the cells: queued until any cell starts, running
	// while any cell is live, then failed/canceled/done (in that priority)
	// once every cell is terminal.
	State  State         `json:"state"`
	Cells  int           `json:"cells"`
	Counts map[State]int `json:"counts"`
	// CellStatus lists every cell's job status in sorted-key order. Cell
	// jobs are ordinary jobs: pollable at /v1/jobs/{id}, reports at
	// /v1/reports/{id}.
	CellStatus []JobStatus `json:"cell_status"`
}

// sweepRun is one registry entry: the sweep's cells as jobs, in sorted-key
// order. Cells are held by pointer, so a sweep's view of its jobs survives
// registry pruning.
type sweepRun struct {
	id      string
	created time.Time
	cells   []*job
}

// status snapshots the sweep's aggregate and per-cell state.
func (sw *sweepRun) status() SweepStatus {
	st := SweepStatus{
		ID:         sw.id,
		Cells:      len(sw.cells),
		Counts:     make(map[State]int),
		CellStatus: make([]JobStatus, 0, len(sw.cells)),
	}
	for _, j := range sw.cells {
		cs := j.status()
		st.Counts[cs.State]++
		st.CellStatus = append(st.CellStatus, cs)
	}
	live := st.Counts[StateQueued] + st.Counts[StateRunning]
	switch {
	case live == len(sw.cells):
		st.State = StateQueued
	case live > 0:
		st.State = StateRunning
	case st.Counts[StateFailed] > 0:
		st.State = StateFailed
	case st.Counts[StateCanceled] > 0:
		st.State = StateCanceled
	default:
		st.State = StateDone
	}
	return st
}

// terminal reports whether every cell is terminal.
func (sw *sweepRun) terminal() bool {
	for _, j := range sw.cells {
		if !j.State().terminal() {
			return false
		}
	}
	return true
}

// buildSweep expands and validates a sweep request into its cell jobs,
// sorted by canonical key, plus the sweep's content-addressed ID (the hash
// of the sorted key list — resubmitting the same grid always lands on the
// same sweep).
func (s *Server) buildSweep(req *SweepRequest) (string, []*job, error) {
	// Bound the full grid before expanding it: a body of a few hundred bytes
	// can describe more cells than the process has memory for.
	if n := sweep.Size(req.Spec, s.opts.Base); n > s.opts.MaxSweepCells {
		return "", nil, fmt.Errorf("sweep grid has %d cells, server limit is %d", n, s.opts.MaxSweepCells)
	}
	cells, err := sweep.Expand(req.Spec, s.opts.Base)
	if err != nil {
		return "", nil, err
	}
	shardI, shardN := req.ShardIndex, req.ShardCount
	if shardI == 0 && shardN == 0 {
		shardN = 1
	}
	if cells, err = sweep.Shard(cells, s.opts.Base, shardI, shardN); err != nil {
		return "", nil, err
	}
	jobs := make([]*job, len(cells))
	for i, c := range cells {
		cfg := c.Config(s.opts.Base)
		if err := cfg.Validate(); err != nil {
			return "", nil, fmt.Errorf("cell %s/%s: %w", c.Bench, c.TechName, err)
		}
		key := core.JobKey(c.Bench, cfg, c.Scale)
		j := &job{
			id:    store.HashKey(key),
			key:   key,
			bench: c.Bench,
			tech:  c.Technique,
			cfg:   cfg,
			scale: c.Scale,
			state: StateQueued,
			subs:  make(map[chan []byte]struct{}),
			done:  make(chan struct{}),
		}
		j.ctx, j.cancel = context.WithCancelCause(s.rootCtx)
		jobs[i] = j
	}
	sort.Slice(jobs, func(a, b int) bool { return jobs[a].key < jobs[b].key })
	keys := make([]string, len(jobs))
	for i, j := range jobs {
		keys[i] = j.key
	}
	id := store.HashKey("wg-sweep v1\n" + strings.Join(keys, "\n"))
	return id, jobs, nil
}

// handleSweepSubmit admits one sweep: quota check, server-side expansion,
// per-cell duplicate collapse against the job registry (a cell whose job is
// already live or done reuses it — the API face of the sweep engine's store
// dedup), and a background feeder that streams fresh cells through the same
// bounded admission queue single jobs use.
func (s *Server) handleSweepSubmit(w http.ResponseWriter, r *http.Request) {
	if ok, wait := s.quotas.take(clientID(r), time.Now()); !ok {
		w.Header().Set("Retry-After", retryAfter(wait))
		writeError(w, http.StatusTooManyRequests, "client quota exceeded; retry in %s", wait.Round(time.Millisecond))
		return
	}
	var req SweepRequest
	if err := decodeRequest(r.Body, &req); err != nil {
		writeError(w, http.StatusBadRequest, "malformed request body: %v", err)
		return
	}
	id, jobs, err := s.buildSweep(&req)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	deadline := s.deadline(req.DeadlineMS)

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		writeError(w, http.StatusServiceUnavailable, "draining: not admitting new sweeps")
		return
	}
	if prev, ok := s.sweeps[id]; ok {
		s.mu.Unlock()
		writeJSON(w, http.StatusOK, prev.status())
		return
	}
	var fresh []*job
	for i, j := range jobs {
		if prev, ok := s.jobs[j.id]; ok {
			if st := prev.State(); st != StateFailed && st != StateCanceled {
				jobs[i] = prev // live or done: the cell collapses onto it
				continue
			}
			// Terminal failure: the fresh cell job replaces it, making the
			// cell retryable exactly like a resubmitted job.
		}
		j.runDeadline = deadline
		s.jobs[j.id] = j
		s.order = append(s.order, j)
		fresh = append(fresh, j)
	}
	sw := &sweepRun{id: id, created: time.Now(), cells: jobs}
	s.sweeps[id] = sw
	s.sweepOrder = append(s.sweepOrder, sw)
	s.pruneSweepsLocked()
	s.pruneLocked()
	s.mu.Unlock()

	go s.feed(fresh)
	writeJSON(w, http.StatusAccepted, sw.status())
}

// feed streams a sweep's fresh cells into the bounded admission queue. A
// large sweep exceeds the queue depth by design: feeding blocks off the
// request goroutine, which is what gives sweeps backpressure without a 429
// per cell. Cells the server stops admitting (drain, shutdown) are canceled,
// never left queued forever.
func (s *Server) feed(fresh []*job) {
	for _, j := range fresh {
		if err := s.admit(j); err != nil {
			j.cancel(err)
			j.transition(StateCanceled, err)
		}
	}
}

// admit queues one job, blocking while the queue is full. Drain safety: the
// sender registers under the mutex while the server still admits, and Drain
// closes the queue only after registered senders finish — so a feeder can
// never send on a closed queue, and a drain can never strand a blocked
// feeder (cancellation of the job's context unblocks it).
func (s *Server) admit(j *job) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return ErrDraining
	}
	s.senders.Add(1)
	s.mu.Unlock()
	defer s.senders.Done()
	select {
	case s.queue <- j:
		return nil
	case <-j.ctx.Done():
		return context.Cause(j.ctx)
	}
}

// pruneSweepsLocked evicts the oldest fully-terminal sweeps once the
// registry exceeds its bound. Live sweeps are never pruned.
func (s *Server) pruneSweepsLocked() {
	if len(s.sweeps) <= maxSweeps {
		return
	}
	kept := s.sweepOrder[:0]
	for _, sw := range s.sweepOrder {
		if len(s.sweeps) > maxSweeps && sw.terminal() {
			delete(s.sweeps, sw.id)
			continue
		}
		kept = append(kept, sw)
	}
	s.sweepOrder = kept
}

// handleSweep answers a sweep status poll.
func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	sw := s.sweeps[id]
	s.mu.Unlock()
	if sw == nil {
		writeError(w, http.StatusNotFound, "no sweep %s", id)
		return
	}
	writeJSON(w, http.StatusOK, sw.status())
}
