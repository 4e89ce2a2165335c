// Package dispatch is the multi-host experiment dispatcher: it fans
// independent, seed-deterministic experiments.Spec jobs out to djvmworker
// processes over plain HTTP/JSON and collects the outcomes back in
// submission order, exactly like internal/runner's in-process pool — only
// the hosts move. Because every job is a pure function of its spec, a
// distributed regeneration is byte-identical to a sequential one; the
// robustness machinery exists so that it stays byte-identical when workers
// die, hang, restart or answer late:
//
//   - every assignment is a lease (job index, fencing epoch, token); a
//     result is accepted only under the job's current token, so a stale
//     worker's late answer is rejected, never applied;
//   - leases expire — on heartbeat silence (dead worker), on transport
//     failure (unreachable worker), or on TTL (hung worker) — and the job
//     is reassigned under the next epoch;
//   - submits and result fetches retry a bounded number of times behind a
//     capped exponential backoff (runner.Backoff), so transient network
//     trouble costs latency, not results;
//   - a worker that restarts mid-batch answers 404 for leases it lost;
//     the coordinator resubmits under the same token (idempotent on the
//     worker side);
//   - when no worker is reachable — at batch start or after the whole
//     fleet dies mid-batch — the remaining jobs drain through the
//     in-process runner.Pool fallback, so installing a dispatcher can
//     never make a regeneration fail that would have succeeded locally.
package dispatch

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"jessica2/internal/experiments"
	"jessica2/internal/runner"
)

// Config names the worker fleet and the local fallback. Only Workers is
// required for remote dispatch at all.
type Config struct {
	// Workers are the fleet addresses ("host:port" or "http://host:port").
	Workers []string
	// Fallback is the in-process pool that runs jobs when the fleet cannot
	// (nil = sequential inline).
	Fallback *runner.Pool
	// Logf receives dispatch events (nil discards them).
	Logf func(format string, args ...any)
}

// timings are the coordinator's liveness, lease and retry settings.
type timings struct {
	// heartbeatEvery is the liveness probe period.
	heartbeatEvery time.Duration
	// heartbeatTimeout is how long a worker may stay silent before it is
	// declared dead and its lease expired.
	heartbeatTimeout time.Duration
	// leaseTTL bounds one assignment: a job not finished within it has its
	// lease expired and is reassigned, guarding against workers that are
	// alive but wedged.
	leaseTTL time.Duration
	// pollEvery is the result polling period while a job runs.
	pollEvery time.Duration
	// retry is the capped exponential backoff between transport retries.
	retry runner.Backoff
	// retries bounds transport retries per submit and per result fetch.
	retries int
	// jobAttempts bounds lease grants per job; a job that burns them all
	// (every grant expired) is withheld from the fleet and runs on the
	// local fallback.
	jobAttempts int
	// requestTimeout bounds each HTTP exchange.
	requestTimeout time.Duration
}

// defaultTimings detect a dead worker within seconds and give a wedged one
// a lease TTL generous next to any real spec.
var defaultTimings = timings{
	heartbeatEvery:   250 * time.Millisecond,
	heartbeatTimeout: 2 * time.Second,
	leaseTTL:         5 * time.Minute,
	pollEvery:        10 * time.Millisecond,
	retry:            runner.Backoff{Base: 25 * time.Millisecond, Max: 500 * time.Millisecond},
	retries:          4,
	jobAttempts:      3,
	requestTimeout:   10 * time.Second,
}

// Stats counts what the robustness machinery actually did. All counters
// accumulate across batches; read a snapshot with Dispatcher.Stats.
type Stats struct {
	// Jobs counts specs submitted to RunSpecs; Remote and Local partition
	// the completions (Remote + Local == Jobs once a batch returns).
	Jobs, Remote, Local int64
	// LeasesGranted counts assignments; Reassignments counts grants beyond
	// a job's first (epoch > 1).
	LeasesGranted, Reassignments int64
	// LeasesExpired counts invalidated grants: heartbeat death, transport
	// failure, TTL expiry or a failed job.
	LeasesExpired int64
	// StaleRejected counts results refused by lease fencing — a superseded
	// token answering after its job moved on.
	StaleRejected int64
	// SubmitRetries and FetchRetries count transport-level retry attempts.
	SubmitRetries, FetchRetries int64
	// WorkersLost counts workers declared dead (once per batch each).
	WorkersLost int64
}

// Dispatcher coordinates a worker fleet. It is safe for sequential reuse
// across many batches (djvmbench regenerates every table through one); a
// worker dead in one batch is probed fresh by the next.
type Dispatcher struct {
	cfg Config
	timings
	client *http.Client

	seq atomic.Int64 // lease token uniquifier

	mu    sync.Mutex
	stats Stats
}

// New builds a dispatcher over the configured fleet.
func New(cfg Config) *Dispatcher {
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	return &Dispatcher{cfg: cfg, timings: defaultTimings, client: &http.Client{}}
}

// Stats returns a snapshot of the robustness counters.
func (d *Dispatcher) Stats() Stats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stats
}

func (d *Dispatcher) bump(field *int64, by int64) {
	d.mu.Lock()
	*field += by
	d.mu.Unlock()
}

// Sentinel failures that leave the worker in rotation (everything else
// drops it for the rest of the batch).
var (
	errLeaseExpired = errors.New("dispatch: lease TTL expired")
	errJobFailed    = errors.New("dispatch: job failed on worker")
)

// RunSpecs executes every spec and returns the outcomes in submission
// order. It implements experiments.Dispatcher. The returned error is
// always nil today — unreachable fleets and dead workers degrade to the
// local fallback pool rather than failing the batch — but the signature
// keeps the contract honest for callers that must not block on local
// capacity.
func (d *Dispatcher) RunSpecs(specs []experiments.Spec) ([]*experiments.Out, error) {
	if len(specs) == 0 {
		return nil, nil
	}
	d.bump(&d.stats.Jobs, int64(len(specs)))
	b := newBatch(d, specs)

	live := d.probeWorkers()
	if len(live) > 0 {
		var wg, hb sync.WaitGroup
		workers := make([]*batchWorker, 0, len(live))
		for _, addr := range live {
			w := newBatchWorker(addr)
			workers = append(workers, w)
			// Wake any claim()-parked loop when this worker is declared
			// dead, so it can re-check its context and exit.
			context.AfterFunc(w.ctx, b.wake)
			wg.Add(1)
			go func() {
				defer wg.Done()
				d.workerLoop(b, w)
			}()
			hb.Add(1)
			go func() {
				defer hb.Done()
				d.heartbeatLoop(w)
			}()
		}
		wg.Wait()
		for _, w := range workers {
			w.cancel() // release surviving heartbeat loops
		}
		// Wait for them, so that Stats is final when RunSpecs returns.
		hb.Wait()
	} else if len(d.cfg.Workers) > 0 {
		d.cfg.Logf("dispatch: no worker reachable; running %d jobs on the local pool", len(specs))
	}

	// Drain everything the fleet did not finish — jobs that burned their
	// attempts, jobs stranded by a fleet-wide die-off, or the entire batch
	// when no worker was reachable — through the in-process pool.
	b.drainLocal()

	outs := make([]*experiments.Out, len(b.jobs))
	for i, j := range b.jobs {
		outs[i] = j.out
	}
	return outs, nil
}

// --- batch state -------------------------------------------------------------

// batchJob is one spec's lifecycle: pending -> leased (possibly several
// epochs) -> done, or pending -> localOnly -> done via the fallback pool.
type batchJob struct {
	idx  int
	spec experiments.Spec

	epoch    int
	attempts int
	token    string // current lease token ("" = not leased)

	done      bool
	localOnly bool
	out       *experiments.Out
}

// batch is the shared coordinator state of one RunSpecs call.
type batch struct {
	d    *Dispatcher
	mu   sync.Mutex
	cond *sync.Cond

	jobs    []*batchJob
	pending []int // claimable job indexes, FIFO
}

func newBatch(d *Dispatcher, specs []experiments.Spec) *batch {
	b := &batch{d: d, jobs: make([]*batchJob, len(specs)), pending: make([]int, len(specs))}
	b.cond = sync.NewCond(&b.mu)
	for i, spec := range specs {
		b.jobs[i] = &batchJob{idx: i, spec: spec}
		b.pending[i] = i
	}
	return b
}

func (b *batch) wake() {
	b.mu.Lock()
	b.cond.Broadcast()
	b.mu.Unlock()
}

// claim hands the caller the next claimable job under a fresh lease. It
// blocks while other workers hold leases that might yet be requeued, and
// returns ok == false once nothing remote remains (every job done or
// withheld for the local pool) or the worker's context dies.
func (b *batch) claim(ctx context.Context) (*batchJob, Lease, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for {
		if ctx.Err() != nil {
			return nil, Lease{}, false
		}
		for len(b.pending) > 0 {
			idx := b.pending[0]
			b.pending = b.pending[1:]
			j := b.jobs[idx]
			if j.done || j.localOnly {
				continue
			}
			if j.attempts >= b.d.jobAttempts {
				// Every grant so far expired: stop feeding this job to the
				// fleet; the local drain picks it up.
				j.localOnly = true
				b.cond.Broadcast()
				continue
			}
			j.attempts++
			j.epoch++
			j.token = fmt.Sprintf("j%d.e%d.s%d", j.idx, j.epoch, b.d.seq.Add(1))
			b.d.bump(&b.d.stats.LeasesGranted, 1)
			if j.epoch > 1 {
				b.d.bump(&b.d.stats.Reassignments, 1)
			}
			return j, Lease{Job: j.idx, Epoch: j.epoch, Token: j.token}, true
		}
		if b.settledLocked() {
			return nil, Lease{}, false
		}
		b.cond.Wait()
	}
}

// settledLocked reports whether no job can ever become claimable again:
// every job is done or local-only. A job currently leased to another
// worker is neither (its lease may expire and requeue it), so claimers
// keep waiting while any lease is in flight.
func (b *batch) settledLocked() bool {
	for _, j := range b.jobs {
		if !j.done && !j.localOnly {
			return false
		}
	}
	return true
}

// complete applies a result under the given lease token. Fencing lives
// here: a token superseded by expiry/reassignment — or a duplicate of an
// already-applied result — is rejected and counted, so every job's
// outcome is applied exactly once no matter how late stale workers answer.
func (b *batch) complete(j *batchJob, token string, out *experiments.Out) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if j.done || j.token != token {
		b.d.bump(&b.d.stats.StaleRejected, 1)
		return false
	}
	j.done = true
	j.token = ""
	j.out = out
	b.d.bump(&b.d.stats.Remote, 1)
	b.cond.Broadcast()
	return true
}

// expire invalidates the given lease and requeues the job for another
// grant. Idempotent per token: once the token is superseded this is a
// no-op, so a worker-loop failure and a heartbeat death racing over the
// same lease cannot double-queue the job.
func (b *batch) expire(j *batchJob, token string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if j.done || j.token != token {
		return
	}
	j.token = ""
	b.pending = append(b.pending, j.idx)
	b.d.bump(&b.d.stats.LeasesExpired, 1)
	b.cond.Broadcast()
}

// drainLocal runs every unfinished job on the fallback pool. Results slot
// into the same positional collection, so a partially-distributed batch
// renders byte-identically to a fully-local one.
func (b *batch) drainLocal() {
	b.mu.Lock()
	var rest []*batchJob
	for _, j := range b.jobs {
		if !j.done {
			rest = append(rest, j)
		}
	}
	b.mu.Unlock()
	if len(rest) == 0 {
		return
	}
	jobs := make([]func() *experiments.Out, len(rest))
	for i := range rest {
		spec := rest[i].spec
		jobs[i] = func() *experiments.Out { return experiments.Run(spec) }
	}
	outs := runner.Collect(b.d.cfg.Fallback, jobs)
	b.mu.Lock()
	for i, j := range rest {
		j.done = true
		j.out = outs[i]
	}
	b.mu.Unlock()
	b.d.bump(&b.d.stats.Local, int64(len(rest)))
}

// --- per-worker machinery ----------------------------------------------------

// batchWorker is one fleet member's per-batch state.
type batchWorker struct {
	addr   string
	ctx    context.Context
	cancel context.CancelFunc
	lost   sync.Once
}

func newBatchWorker(addr string) *batchWorker {
	ctx, cancel := context.WithCancel(context.Background())
	return &batchWorker{addr: addr, ctx: ctx, cancel: cancel}
}

// declareLost drops the worker for the rest of the batch (once).
func (d *Dispatcher) declareLost(w *batchWorker, why string) {
	w.lost.Do(func() {
		d.bump(&d.stats.WorkersLost, 1)
		d.cfg.Logf("dispatch: worker %s lost: %s", w.addr, why)
		w.cancel()
	})
}

// workerLoop claims jobs for one worker until nothing remote remains or
// the worker dies.
func (d *Dispatcher) workerLoop(b *batch, w *batchWorker) {
	for {
		j, lease, ok := b.claim(w.ctx)
		if !ok {
			return
		}
		out, err := d.runJob(w.ctx, w.addr, lease, j.spec)
		if err != nil {
			b.expire(j, lease.Token)
			d.cfg.Logf("dispatch: worker %s: job %d epoch %d: %v (lease expired, job requeued)",
				w.addr, lease.Job, lease.Epoch, err)
			if errors.Is(err, errLeaseExpired) || errors.Is(err, errJobFailed) {
				continue // the worker itself is fine; keep it in rotation
			}
			d.declareLost(w, err.Error())
			return
		}
		if b.complete(j, lease.Token, out) {
			d.ack(w.addr, lease.Token)
		}
	}
}

// heartbeatLoop probes one worker's liveness until the batch releases it.
// Sustained silence past heartbeatTimeout declares the worker dead, which
// cancels its context: the worker loop's in-flight HTTP call aborts, the
// lease expires, and the job requeues to the survivors. A ping that fails
// because the batch released the worker is not silence.
func (d *Dispatcher) heartbeatLoop(w *batchWorker) {
	t := time.NewTicker(d.heartbeatEvery)
	defer t.Stop()
	lastOK := time.Now()
	for {
		select {
		case <-w.ctx.Done():
			return
		case <-t.C:
		}
		if err := d.ping(w.ctx, w.addr); err == nil {
			lastOK = time.Now()
			continue
		}
		if w.ctx.Err() != nil {
			return
		}
		if time.Since(lastOK) >= d.heartbeatTimeout {
			d.declareLost(w, fmt.Sprintf("heartbeat silent for %v", time.Since(lastOK).Round(time.Millisecond)))
			return
		}
	}
}

// probeWorkers pings the configured fleet once and returns the reachable
// members (normalized to URLs).
func (d *Dispatcher) probeWorkers() []string {
	var live []string
	for _, raw := range d.cfg.Workers {
		addr := normalizeAddr(raw)
		if addr == "" {
			continue
		}
		if err := d.ping(context.Background(), addr); err != nil {
			d.cfg.Logf("dispatch: worker %s unreachable at batch start: %v", addr, err)
			continue
		}
		live = append(live, addr)
	}
	return live
}

func normalizeAddr(raw string) string {
	addr := strings.TrimSpace(raw)
	if addr == "" {
		return ""
	}
	if !strings.Contains(addr, "://") {
		addr = "http://" + addr
	}
	return strings.TrimRight(addr, "/")
}

// --- protocol client ---------------------------------------------------------

// runJob drives one lease to a result: submit (bounded retries), then poll
// for the outcome until it arrives, the lease TTL runs out, or the worker
// stops answering.
func (d *Dispatcher) runJob(ctx context.Context, addr string, lease Lease, spec experiments.Spec) (*experiments.Out, error) {
	payload, err := EncodeJob(lease, spec)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", errJobFailed, err)
	}
	deadline := time.Now().Add(d.leaseTTL)
	if err := d.submit(ctx, addr, payload); err != nil {
		return nil, err
	}
	fetchFails, resubmits := 0, 0
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if time.Now().After(deadline) {
			return nil, errLeaseExpired
		}
		out, status, err := d.fetch(ctx, addr, lease.Token)
		switch {
		case err == nil && status == http.StatusOK:
			return out, nil
		case err == nil && status == http.StatusNoContent:
			// Still running: not a failure, polling is unbounded up to the
			// lease TTL (heartbeats separately cover a dead worker).
			sleepCtx(ctx, d.pollEvery)
		case err == nil && status == http.StatusNotFound:
			// The worker does not know the lease: it restarted and lost
			// its state. Resubmit under the same token (idempotent).
			resubmits++
			if resubmits > d.retries {
				return nil, fmt.Errorf("worker keeps forgetting lease %s", lease.Token)
			}
			d.bump(&d.stats.SubmitRetries, 1)
			if err := d.submit(ctx, addr, payload); err != nil {
				return nil, err
			}
		case err == nil && status == http.StatusInternalServerError:
			return nil, errJobFailed
		default:
			// Transport failure or a corrupt/foreign payload: bounded
			// retries behind the backoff, then give up on this worker.
			if err == nil {
				err = fmt.Errorf("unexpected result status %d", status)
			}
			fetchFails++
			if fetchFails > d.retries {
				return nil, err
			}
			d.bump(&d.stats.FetchRetries, 1)
			sleepCtx(ctx, d.retry.Delay(fetchFails-1))
		}
	}
}

// submit posts a sealed job with bounded, backed-off retries. A 400 is
// terminal (the payload itself is rejected; retrying cannot help).
func (d *Dispatcher) submit(ctx context.Context, addr string, payload []byte) error {
	for attempt := 0; ; attempt++ {
		err := d.post(ctx, addr+"/submit", payload)
		if err == nil {
			return nil
		}
		var terminal *protocolError
		if errors.As(err, &terminal) || ctx.Err() != nil || attempt >= d.retries {
			return err
		}
		d.bump(&d.stats.SubmitRetries, 1)
		sleepCtx(ctx, d.retry.Delay(attempt))
	}
}

// protocolError marks a worker response that retrying cannot fix.
type protocolError struct{ msg string }

func (e *protocolError) Error() string { return e.msg }

func (d *Dispatcher) post(ctx context.Context, url string, payload []byte) error {
	rctx, cancel := context.WithTimeout(ctx, d.requestTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(rctx, http.MethodPost, url, bytes.NewReader(payload))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := d.client.Do(req)
	if err != nil {
		return err
	}
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	resp.Body.Close()
	switch {
	case resp.StatusCode == http.StatusOK:
		return nil
	case resp.StatusCode == http.StatusBadRequest:
		return &protocolError{msg: fmt.Sprintf("worker rejected payload: %s", strings.TrimSpace(string(body)))}
	default:
		return fmt.Errorf("%s: status %d", url, resp.StatusCode)
	}
}

// fetch polls one lease's result. The (out, status, err) triple separates
// protocol states (204 running, 404 forgotten, 500 failed) from transport
// and decode failures (err != nil).
func (d *Dispatcher) fetch(ctx context.Context, addr, token string) (*experiments.Out, int, error) {
	rctx, cancel := context.WithTimeout(ctx, d.requestTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(rctx, http.MethodGet, addr+"/result?token="+token, nil)
	if err != nil {
		return nil, 0, err
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			return nil, 0, err
		}
		out, err := DecodeOut(data)
		if err != nil {
			// Corrupt result: typed decode error; treated as a transport
			// failure (retry, then reassign) — never applied.
			return nil, 0, err
		}
		return out, http.StatusOK, nil
	case http.StatusNoContent, http.StatusNotFound, http.StatusInternalServerError:
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		return nil, resp.StatusCode, nil
	default:
		return nil, 0, fmt.Errorf("%s/result: status %d", addr, resp.StatusCode)
	}
}

// ping checks a worker's liveness.
func (d *Dispatcher) ping(ctx context.Context, addr string) error {
	rctx, cancel := context.WithTimeout(ctx, d.heartbeatEvery+d.requestTimeout/10)
	defer cancel()
	req, err := http.NewRequestWithContext(rctx, http.MethodGet, addr+"/healthz", nil)
	if err != nil {
		return err
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return err
	}
	io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("healthz status %d", resp.StatusCode)
	}
	return nil
}

// ack releases a collected result's memory on the worker (best effort).
func (d *Dispatcher) ack(addr, token string) {
	ctx, cancel := context.WithTimeout(context.Background(), d.requestTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, addr+"/ack?token="+token, nil)
	if err != nil {
		return
	}
	if resp, err := d.client.Do(req); err == nil {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		resp.Body.Close()
	}
}

// sleepCtx pauses for d or until ctx is cancelled, whichever comes first.
func sleepCtx(ctx context.Context, dur time.Duration) {
	if dur <= 0 {
		return
	}
	t := time.NewTimer(dur)
	defer t.Stop()
	select {
	case <-ctx.Done():
	case <-t.C:
	}
}
