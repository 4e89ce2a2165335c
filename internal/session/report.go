package session

import (
	"fmt"
	"strings"

	"jessica2/internal/balancer"
	"jessica2/internal/gos"
	"jessica2/internal/network"
	"jessica2/internal/sim"
	"jessica2/internal/tcm"
)

// Report gives access to a completed run's results.
type Report struct {
	s *Session
}

// Report returns the completed run's report, or ErrNotFinished while the
// run is still in progress.
func (s *Session) Report() (*Report, error) {
	if err := s.Finished(); err != nil {
		return nil, err
	}
	return &Report{s: s}, nil
}

// ExecTime is the workload execution time (paper tables' metric).
func (r *Report) ExecTime() sim.Time { return r.s.execTime }

// TCM builds the thread correlation map from all collected OALs.
func (r *Report) TCM() *tcm.Map { return r.s.TCMNow() }

// KernelStats returns protocol/profiling counters.
func (r *Report) KernelStats() gos.KernelStats { return r.s.k.Stats() }

// NetworkStats returns per-category traffic stats.
func (r *Report) NetworkStats() network.Stats { return r.s.k.Net.Stats() }

// OALBytes is profiling traffic volume.
func (r *Report) OALBytes() int64 { return r.NetworkStats().CatBytes(network.CatOAL) }

// GOSBytes is protocol traffic volume (data + control + headers).
func (r *Report) GOSBytes() int64 { return r.NetworkStats().GOSBytes() }

// HomeAffinity exports the thread×node shared-volume matrix (the "home
// effect" input for home-aware placement planning).
func (r *Report) HomeAffinity() [][]float64 {
	k := r.s.k
	return k.Master().HomeAffinity(k.NumThreads(), k.NumNodes())
}

// AdviseHomeMigrations recommends object re-homings from the collected
// correlation state: objects whose accessors all run on one node, homed
// elsewhere, should move there.
func (r *Report) AdviseHomeMigrations(assignment balancer.Assignment, minBytes int) []gos.HomeMove {
	k := r.s.k
	return k.AdviseHomes(k.Master().Summary(), assignment, minBytes)
}

// String renders a human-readable summary.
func (r *Report) String() string {
	return Summary(strings.Join(r.s.Workloads(), ", "), r.ExecTime(),
		r.KernelStats(), r.NetworkStats(), r.s.k.Master().ComputeTime())
}

// Summary renders the nine-line run summary that Report.String and djvmrun
// print: the workloads, execution time, kernel counters, OAL and GOS
// traffic, and the master analyzer's CPU time.
func Summary(workloads string, exec sim.Time, st gos.KernelStats, net network.Stats, tcmTime sim.Time) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "workloads:         %s\n", workloads)
	fmt.Fprintf(&sb, "execution time:    %v\n", exec)
	fmt.Fprintf(&sb, "intervals:         %d\n", st.Intervals)
	fmt.Fprintf(&sb, "remote faults:     %d (%d KB)\n", st.Faults, st.FaultBytes/1024)
	fmt.Fprintf(&sb, "correlation logs:  %d\n", st.CorrelationLogs)
	fmt.Fprintf(&sb, "barriers/locks:    %d / %d\n", st.Barriers, st.LockAcquires)
	fmt.Fprintf(&sb, "OAL traffic:       %d KB\n", net.CatBytes(network.CatOAL)/1024)
	fmt.Fprintf(&sb, "GOS traffic:       %d KB\n", net.GOSBytes()/1024)
	fmt.Fprintf(&sb, "TCM compute time:  %v\n", tcmTime)
	return sb.String()
}
