package dispatch

import (
	"bufio"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"
)

// The chaos test needs real worker *processes* — SIGKILL must take the
// whole runtime down mid-job, which an httptest server cannot model. The
// test binary re-execs itself as a worker: TestMain diverts to
// workerProcMain when the marker variable is set.
const workerProcEnv = "JESSICA2_DISPATCH_WORKER_PROC"

func TestMain(m *testing.M) {
	if os.Getenv(workerProcEnv) == "1" {
		workerProcMain()
		return
	}
	os.Exit(m.Run())
}

// workerProcMain is cmd/djvmworker in miniature: bind a loopback port,
// announce it on stdout, serve jobs until killed.
func workerProcMain() {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("worker listening on %s\n", ln.Addr())
	if err := http.Serve(ln, NewWorker(nil).Handler()); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// startWorkerProc launches one worker process and returns it with its
// announced address.
func startWorkerProc(t *testing.T) (*exec.Cmd, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), workerProcEnv+"=1")
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cmd.Process.Kill()
		cmd.Wait()
	})
	line, err := bufio.NewReader(stdout).ReadString('\n')
	if err != nil {
		t.Fatalf("worker process never announced its address: %v", err)
	}
	addr := strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(line), "worker listening on "))
	if addr == "" {
		t.Fatalf("malformed announcement %q", line)
	}
	return cmd, addr
}

// TestChaosWorkerSIGKILLMidBatch is the headline resilience gate: a
// two-process loopback fleet loses one worker to SIGKILL in the middle of
// a batch. The dead worker's lease must expire, its job must be
// reassigned, and the collected batch must stay byte-identical to the
// sequential baseline — the failure costs time, never results.
func TestChaosWorkerSIGKILLMidBatch(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos: spawns worker processes")
	}
	victim, victimAddr := startWorkerProc(t)
	_, survivorAddr := startWorkerProc(t)

	specs := testSpecs(16)
	want := sequentialBaseline(specs)

	d := fastDispatcher(victimAddr, survivorAddr)

	// Kill the victim once the batch is demonstrably mid-flight (two
	// results already applied, most of the batch still out).
	killed := make(chan struct{})
	go func() {
		defer close(killed)
		for d.Stats().Remote < 2 {
			time.Sleep(2 * time.Millisecond)
		}
		victim.Process.Kill() // SIGKILL: no goodbye, no flush
		victim.Wait()
	}()

	got, err := d.RunSpecs(specs)
	if err != nil {
		t.Fatalf("RunSpecs: %v", err)
	}
	<-killed
	requireIdentical(t, got, want)

	s := d.Stats()
	if s.WorkersLost != 1 {
		t.Fatalf("WorkersLost = %d, want exactly the SIGKILLed victim", s.WorkersLost)
	}
	if s.LeasesExpired == 0 {
		t.Fatalf("the dead worker's lease never expired: %+v", s)
	}
	if s.Reassignments == 0 && s.Local == 0 {
		t.Fatalf("no job was reassigned or drained after the kill: %+v", s)
	}
	if s.Remote+s.Local != int64(len(specs)) {
		t.Fatalf("completion ledger broken: %+v", s)
	}
	if s.StaleRejected > 0 {
		// A SIGKILLed worker cannot answer late; stale rejections here
		// would mean fencing fired on a healthy path.
		t.Fatalf("unexpected stale rejections: %+v", s)
	}
}

// TestChaosWorkerBinaryEndToEnd drives the shipped cmd/djvmworker binary
// (not the re-exec shim): build it, run two, dispatch a batch, compare
// bytes. This is the CI smoke for the actual artifact.
func TestChaosWorkerBinaryEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos: builds and spawns djvmworker")
	}
	bin := t.TempDir() + "/djvmworker"
	build := exec.Command("go", "build", "-o", bin, "jessica2/cmd/djvmworker")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		t.Fatalf("building djvmworker: %v", err)
	}

	var addrs []string
	for i := 0; i < 2; i++ {
		cmd := exec.Command(bin, "-listen", "127.0.0.1:0", "-quiet")
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			t.Fatal(err)
		}
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() {
			cmd.Process.Kill()
			cmd.Wait()
		})
		line, err := bufio.NewReader(stdout).ReadString('\n')
		if err != nil {
			t.Fatalf("djvmworker never announced: %v", err)
		}
		addr := strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(line), "djvmworker listening on "))
		addrs = append(addrs, addr)
	}

	specs := testSpecs(8)
	want := sequentialBaseline(specs)
	d := fastDispatcher(addrs...)
	got, err := d.RunSpecs(specs)
	if err != nil {
		t.Fatalf("RunSpecs: %v", err)
	}
	requireIdentical(t, got, want)
	if s := d.Stats(); s.Remote != int64(len(specs)) {
		t.Fatalf("Remote = %d, want %d: %+v", s.Remote, len(specs), s)
	}
}
