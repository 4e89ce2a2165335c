package dispatch

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"jessica2/internal/experiments"
	"jessica2/internal/gos"
	"jessica2/internal/runner"
)

// fastDispatcher returns a dispatcher over workers with timings tuned for
// loopback tests: failures are detected in tens of milliseconds instead of
// seconds.
func fastDispatcher(workers ...string) *Dispatcher {
	d := New(Config{Workers: workers})
	d.heartbeatEvery = 10 * time.Millisecond
	d.heartbeatTimeout = 80 * time.Millisecond
	d.leaseTTL = 10 * time.Second
	d.pollEvery = 2 * time.Millisecond
	d.retry = runner.Backoff{Base: time.Millisecond, Max: 5 * time.Millisecond}
	d.retries = 3
	d.requestTimeout = 2 * time.Second
	return d
}

// testSpecs is a small mixed batch: every app, differing seeds, cheap
// CI-scale datasets.
func testSpecs(n int) []experiments.Spec {
	specs := make([]experiments.Spec, n)
	for i := range specs {
		specs[i] = experiments.Spec{
			App:   experiments.AllApps[i%len(experiments.AllApps)],
			Scale: 16, Nodes: 4, Threads: 4, Seed: uint64(100 + i),
			Tracking: gos.TrackingSampled, Rate: 4, TransferOALs: true,
		}
	}
	return specs
}

// encodeAll renders outs to their canonical wire bytes for identity
// comparison.
func encodeAll(t *testing.T, outs []*experiments.Out) [][]byte {
	t.Helper()
	enc := make([][]byte, len(outs))
	for i, o := range outs {
		if o == nil {
			t.Fatalf("out[%d] is nil", i)
		}
		b, err := EncodeOut(o)
		if err != nil {
			t.Fatalf("encoding out[%d]: %v", i, err)
		}
		enc[i] = b
	}
	return enc
}

// requireIdentical asserts the distributed batch is byte-identical to the
// sequential baseline, position by position.
func requireIdentical(t *testing.T, got, want []*experiments.Out) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d outs, want %d", len(got), len(want))
	}
	ge, we := encodeAll(t, got), encodeAll(t, want)
	for i := range we {
		if !bytes.Equal(ge[i], we[i]) {
			t.Fatalf("out[%d] differs from the sequential baseline (%d vs %d wire bytes)",
				i, len(ge[i]), len(we[i]))
		}
	}
}

func sequentialBaseline(specs []experiments.Spec) []*experiments.Out {
	outs := make([]*experiments.Out, len(specs))
	for i, s := range specs {
		outs[i] = experiments.Run(s)
	}
	return outs
}

// --- lease fencing (white-box) ----------------------------------------------

// TestLeaseFencingRejectsStaleResult is the fencing contract in isolation:
// a result arriving under a superseded lease token is rejected, the
// reassigned lease's result is applied, and a duplicate of an applied
// result is also rejected.
func TestLeaseFencingRejectsStaleResult(t *testing.T) {
	d := New(Config{})
	b := newBatch(d, testSpecs(1))

	j, lease1, ok := b.claim(context.Background())
	if !ok || lease1.Epoch != 1 {
		t.Fatalf("first claim: ok=%v lease=%+v", ok, lease1)
	}
	// The lease expires (worker declared dead / TTL ran out) and the job
	// is granted again under the next epoch.
	b.expire(j, lease1.Token)
	j2, lease2, ok := b.claim(context.Background())
	if !ok || j2 != j || lease2.Epoch != 2 || lease2.Token == lease1.Token {
		t.Fatalf("reassignment claim: ok=%v lease=%+v", ok, lease2)
	}

	stale := &experiments.Out{Spec: j.spec}
	fresh := &experiments.Out{Spec: j.spec}
	if b.complete(j, lease1.Token, stale) {
		t.Fatal("stale epoch-1 result was applied after reassignment")
	}
	if !b.complete(j, lease2.Token, fresh) {
		t.Fatal("current lease's result was rejected")
	}
	if b.complete(j, lease2.Token, stale) {
		t.Fatal("duplicate result was applied twice")
	}
	if j.out != fresh {
		t.Fatal("job holds the wrong result")
	}
	s := d.Stats()
	if s.StaleRejected != 2 {
		t.Fatalf("StaleRejected = %d, want 2", s.StaleRejected)
	}
	if s.LeasesGranted != 2 || s.Reassignments != 1 || s.LeasesExpired != 1 {
		t.Fatalf("lease stats = %+v", s)
	}
}

// TestClaimWithholdsJobAfterAttemptCap: a job whose every grant expires is
// withheld from the fleet after its last permitted grant and drains locally.
func TestClaimWithholdsJobAfterAttemptCap(t *testing.T) {
	d := New(Config{})
	d.jobAttempts = 2
	b := newBatch(d, testSpecs(1))
	for i := 0; i < 2; i++ {
		j, lease, ok := b.claim(context.Background())
		if !ok {
			t.Fatalf("claim %d refused", i)
		}
		b.expire(j, lease.Token)
	}
	// Third claim: the job has burned its attempts; nothing remote remains.
	if _, _, ok := b.claim(context.Background()); ok {
		t.Fatal("claim handed out a lease past the attempt cap")
	}
	if !b.jobs[0].localOnly {
		t.Fatal("exhausted job was not marked local-only")
	}
	b.drainLocal()
	if b.jobs[0].out == nil {
		t.Fatal("local drain did not run the withheld job")
	}
	if got := d.Stats().Local; got != 1 {
		t.Fatalf("Local = %d, want 1", got)
	}
}

// TestClaimWaitsForInFlightLeases: a claimer must not give up while
// another worker's lease is in flight — if that lease expires, the waiter
// picks the job up.
func TestClaimWaitsForInFlightLeases(t *testing.T) {
	d := New(Config{})
	b := newBatch(d, testSpecs(1))
	j, lease1, _ := b.claim(context.Background())

	claimed := make(chan Lease, 1)
	go func() {
		_, lease, ok := b.claim(context.Background())
		if ok {
			claimed <- lease
		}
		close(claimed)
	}()
	// The second claimer must park (nothing pending, one lease in flight).
	select {
	case l, ok := <-claimed:
		t.Fatalf("claim returned early: %+v ok=%v", l, ok)
	case <-time.After(50 * time.Millisecond):
	}
	b.expire(j, lease1.Token)
	select {
	case l, ok := <-claimed:
		if !ok || l.Epoch != 2 {
			t.Fatalf("waiter got %+v ok=%v, want the epoch-2 reassignment", l, ok)
		}
	case <-time.After(time.Second):
		t.Fatal("waiter never woke after the lease expired")
	}
}

// --- loopback integration ----------------------------------------------------

// startFleet mounts n real Worker handlers on loopback HTTP servers.
func startFleet(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		srv := httptest.NewServer(NewWorker(nil).Handler())
		t.Cleanup(srv.Close)
		addrs[i] = srv.URL
	}
	return addrs
}

// TestRunSpecsLoopbackIdentity is the tentpole's gate: a batch dispatched
// across a loopback fleet is byte-identical, position by position, to the
// same batch run sequentially in-process.
func TestRunSpecsLoopbackIdentity(t *testing.T) {
	specs := testSpecs(12)
	want := sequentialBaseline(specs)

	d := fastDispatcher(startFleet(t, 3)...)
	got, err := d.RunSpecs(specs)
	if err != nil {
		t.Fatalf("RunSpecs: %v", err)
	}
	requireIdentical(t, got, want)

	s := d.Stats()
	if s.Remote != int64(len(specs)) || s.Local != 0 {
		t.Fatalf("healthy fleet: Remote=%d Local=%d, want %d/0", s.Remote, s.Local, len(specs))
	}
	if s.LeasesExpired != 0 || s.StaleRejected != 0 || s.WorkersLost != 0 {
		t.Fatalf("healthy fleet recorded failures: %+v", s)
	}
}

// TestRunSpecsDegradesToLocalWhenFleetUnreachable: with no worker
// answering, the whole batch runs on the local pool and stays identical.
func TestRunSpecsDegradesToLocalWhenFleetUnreachable(t *testing.T) {
	specs := testSpecs(4)
	want := sequentialBaseline(specs)

	// A closed server: connection refused from the first probe.
	srv := httptest.NewServer(http.NotFoundHandler())
	dead := srv.URL
	srv.Close()

	d := fastDispatcher(dead, "127.0.0.1:1")
	d.cfg.Fallback = runner.New(2)
	got, err := d.RunSpecs(specs)
	if err != nil {
		t.Fatalf("RunSpecs: %v", err)
	}
	requireIdentical(t, got, want)
	if s := d.Stats(); s.Local != int64(len(specs)) || s.Remote != 0 {
		t.Fatalf("Local=%d Remote=%d, want %d/0", s.Local, s.Remote, len(specs))
	}
}

// TestRunAllUsesDispatcher: the experiments wiring routes batches through
// an installed dispatcher and the collected tables stay identical.
func TestRunAllUsesDispatcher(t *testing.T) {
	specs := testSpecs(6)
	want := sequentialBaseline(specs)

	d := fastDispatcher(startFleet(t, 2)...)
	experiments.SetDispatcher(d)
	defer experiments.SetDispatcher(nil)

	got := experiments.RunAll(nil, specs)
	requireIdentical(t, got, want)
	if s := d.Stats(); s.Remote != int64(len(specs)) {
		t.Fatalf("dispatcher saw %d remote jobs, want %d", s.Remote, len(specs))
	}
}

// --- failure injection via stub workers --------------------------------------

// stubWorker wraps a real Worker handler with a fault-injecting middleware.
type stubWorker struct {
	inner http.Handler
	fault func(w http.ResponseWriter, r *http.Request) bool // true = handled
}

func (s *stubWorker) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if s.fault != nil && s.fault(w, r) {
		return
	}
	s.inner.ServeHTTP(w, r)
}

// TestHungWorkerLeaseTTLReassigns: a worker that accepts jobs but never
// finishes them (alive, heartbeating, wedged) must not wedge the batch —
// its leases expire on TTL and the jobs land on the healthy worker.
func TestHungWorkerLeaseTTLReassigns(t *testing.T) {
	specs := testSpecs(6)
	want := sequentialBaseline(specs)

	// The hung worker accepts /submit but answers 204 to every /result
	// forever; /healthz stays healthy.
	hung := httptest.NewServer(&stubWorker{
		inner: NewWorker(nil).Handler(),
		fault: func(w http.ResponseWriter, r *http.Request) bool {
			if r.URL.Path == "/result" {
				w.WriteHeader(http.StatusNoContent)
				return true
			}
			return false
		},
	})
	defer hung.Close()
	healthy := startFleet(t, 1)

	d := fastDispatcher(hung.URL, healthy[0])
	d.leaseTTL = 100 * time.Millisecond
	d.jobAttempts = 4
	got, err := d.RunSpecs(specs)
	if err != nil {
		t.Fatalf("RunSpecs: %v", err)
	}
	requireIdentical(t, got, want)

	s := d.Stats()
	if s.LeasesExpired == 0 || s.Reassignments == 0 {
		t.Fatalf("hung worker never triggered TTL expiry: %+v", s)
	}
	if s.WorkersLost != 0 {
		t.Fatalf("a responsive-but-hung worker was declared dead: %+v", s)
	}
	if s.Remote+s.Local != int64(len(specs)) {
		t.Fatalf("completion ledger broken: %+v", s)
	}
}

// TestReleasedWorkerIsNotLost: a heartbeat ping still in flight when the
// batch ends fails because the batch released the worker, not because the
// worker fell silent, so a healthy worker must not be counted lost. The
// stub answers the batch-start probe and then holds every ping open until
// it is cancelled; each submit is slowed so a ping is in flight when the
// job finishes, and a 1 ns silence limit turns any misread failure into a
// loss.
func TestReleasedWorkerIsNotLost(t *testing.T) {
	specs := testSpecs(1)
	want := sequentialBaseline(specs)
	var probed atomic.Bool
	srv := httptest.NewServer(&stubWorker{
		inner: NewWorker(nil).Handler(),
		fault: func(w http.ResponseWriter, r *http.Request) bool {
			switch r.URL.Path {
			case "/healthz":
				if probed.CompareAndSwap(false, true) {
					return false
				}
				<-r.Context().Done()
				return true
			case "/submit":
				time.Sleep(50 * time.Millisecond)
			}
			return false
		},
	})

	d := fastDispatcher(srv.URL)
	d.heartbeatTimeout = time.Nanosecond
	d.requestTimeout = 5 * time.Second
	got, err := d.RunSpecs(specs)
	// Close waits for the held ping to end, which it does only once the
	// batch has released the worker.
	srv.Close()
	if err != nil {
		t.Fatalf("RunSpecs: %v", err)
	}
	requireIdentical(t, got, want)
	if s := d.Stats(); s.WorkersLost != 0 || s.Remote != 1 {
		t.Fatalf("a released healthy worker was declared lost: %+v", s)
	}
}

// TestRestartedWorkerIsResubmitted: a worker that loses a submitted job
// (process restart: fresh empty state) answers 404 on the result poll;
// the coordinator resubmits under the same token and the batch completes.
func TestRestartedWorkerIsResubmitted(t *testing.T) {
	specs := testSpecs(3)
	want := sequentialBaseline(specs)

	// Swallow the first submit: accept it on the wire, store nothing —
	// exactly what a restart between submit and poll looks like.
	var swallowed atomic.Bool
	inner := NewWorker(nil).Handler()
	srv := httptest.NewServer(&stubWorker{
		inner: inner,
		fault: func(w http.ResponseWriter, r *http.Request) bool {
			if r.URL.Path == "/submit" && swallowed.CompareAndSwap(false, true) {
				w.WriteHeader(http.StatusOK)
				return true
			}
			return false
		},
	})
	defer srv.Close()

	d := fastDispatcher(srv.URL)
	got, err := d.RunSpecs(specs)
	if err != nil {
		t.Fatalf("RunSpecs: %v", err)
	}
	requireIdentical(t, got, want)
	s := d.Stats()
	if s.SubmitRetries == 0 {
		t.Fatalf("amnesiac worker never triggered a resubmit: %+v", s)
	}
	if s.Remote != int64(len(specs)) {
		t.Fatalf("Remote = %d, want %d", s.Remote, len(specs))
	}
}

// TestCorruptResultIsNeverApplied: a worker answering 200 with garbage
// must burn its bounded fetch retries, get dropped, and the job must be
// reassigned — the corrupt bytes never reach the collected outs.
func TestCorruptResultIsNeverApplied(t *testing.T) {
	specs := testSpecs(4)
	want := sequentialBaseline(specs)

	corrupt := httptest.NewServer(&stubWorker{
		inner: NewWorker(nil).Handler(),
		fault: func(w http.ResponseWriter, r *http.Request) bool {
			if r.URL.Path == "/result" {
				w.WriteHeader(http.StatusOK)
				w.Write([]byte(`{"schema":"jessica2/dispatch","version":1,"kind":"out","crc":1,"body":{}}`))
				return true
			}
			return false
		},
	})
	defer corrupt.Close()
	healthy := startFleet(t, 1)

	d := fastDispatcher(corrupt.URL, healthy[0])
	got, err := d.RunSpecs(specs)
	if err != nil {
		t.Fatalf("RunSpecs: %v", err)
	}
	requireIdentical(t, got, want)
	s := d.Stats()
	if s.FetchRetries == 0 {
		t.Fatalf("corrupt results never triggered fetch retries: %+v", s)
	}
	if s.LeasesExpired == 0 {
		t.Fatalf("the corrupt worker's lease never expired: %+v", s)
	}
	if s.Remote+s.Local != int64(len(specs)) {
		t.Fatalf("completion ledger broken: %+v", s)
	}
}

// TestFleetDeathDrainsLocally: when the entire fleet dies mid-batch the
// stranded jobs drain through the local pool and the batch stays
// byte-identical.
func TestFleetDeathDrainsLocally(t *testing.T) {
	specs := testSpecs(8)
	want := sequentialBaseline(specs)

	// The worker dies (connection-level) after completing two jobs.
	var done atomic.Int64
	inner := NewWorker(nil).Handler()
	var srv *httptest.Server
	var closeOnce sync.Once
	srv = httptest.NewServer(&stubWorker{
		inner: inner,
		fault: func(w http.ResponseWriter, r *http.Request) bool {
			if done.Load() >= 2 {
				closeOnce.Do(func() { go srv.CloseClientConnections() })
				// Hijack-and-drop: the client sees a broken connection.
				if hj, ok := w.(http.Hijacker); ok {
					if conn, _, err := hj.Hijack(); err == nil {
						conn.Close()
						return true
					}
				}
				return false
			}
			if r.URL.Path == "/ack" {
				done.Add(1)
			}
			return false
		},
	})
	defer srv.Close()

	d := fastDispatcher(srv.URL)
	d.cfg.Fallback = runner.New(2)
	got, err := d.RunSpecs(specs)
	if err != nil {
		t.Fatalf("RunSpecs: %v", err)
	}
	requireIdentical(t, got, want)
	s := d.Stats()
	if s.WorkersLost != 1 {
		t.Fatalf("WorkersLost = %d, want 1", s.WorkersLost)
	}
	if s.Local == 0 {
		t.Fatalf("no jobs drained locally after fleet death: %+v", s)
	}
	if s.Remote+s.Local != int64(len(specs)) {
		t.Fatalf("completion ledger broken: %+v", s)
	}
}
