package experiments

import (
	"fmt"
	"strings"

	"jessica2/internal/gos"
	"jessica2/internal/metrics"
	"jessica2/internal/runner"
	"jessica2/internal/sampling"
	"jessica2/internal/tcm"
)

// --- Figure 9 ----------------------------------------------------------------

// Fig9Point is one sampling rate's accuracy measurements for one app.
type Fig9Point struct {
	Rate        sampling.Rate
	AbsoluteABS float64 // 1 − E_ABS(A_rate, A_full)
	RelativeABS float64 // 1 − E_ABS(A_rate, A_prevFinerRate)
	AbsoluteEUC float64
	RelativeEUC float64
}

// Fig9Result holds the correlation-tracking accuracy curves.
type Fig9Result struct {
	Scale  Scale
	Points map[App][]Fig9Point
}

// Fig9Rates is the sweep of the paper's Fig. 9 x-axis.
var Fig9Rates = sampling.SweepRates(512)

// Fig9 sweeps sampling rates 512X → 1X with 16 threads per application and
// measures absolute accuracy (vs the full-sampling map) and relative
// accuracy (vs the previous, finer rate's map) under both distance metrics.
// Only the runs are independent — the relative-accuracy chain is a fold
// over their maps — so the specs fan out through the pool and the point
// series is computed from the ordered results.
func Fig9(scale Scale, p *runner.Pool) *Fig9Result {
	spec := func(a App, rate sampling.Rate) Spec {
		return Spec{App: a, Scale: scale, Nodes: 8, Threads: 16, Seed: figSeed,
			Tracking: gos.TrackingSampled, Rate: rate, TransferOALs: true}
	}
	perApp := 1 + len(Fig9Rates)
	specs := make([]Spec, 0, perApp*len(Apps))
	for _, a := range Apps {
		specs = append(specs, spec(a, sampling.FullRate))
		for _, rate := range Fig9Rates {
			specs = append(specs, spec(a, rate))
		}
	}
	outs := RunAll(p, specs)

	res := &Fig9Result{Scale: scale, Points: make(map[App][]Fig9Point)}
	for ai, a := range Apps {
		full := outs[ai*perApp]
		prev := full.TCM
		for ri, rate := range Fig9Rates {
			out := outs[ai*perApp+1+ri]
			pt := Fig9Point{
				Rate:        rate,
				AbsoluteABS: tcm.Accuracy(tcm.DistanceABS(out.TCM, full.TCM)),
				RelativeABS: tcm.Accuracy(tcm.DistanceABS(out.TCM, prev)),
				AbsoluteEUC: tcm.Accuracy(tcm.DistanceEUC(out.TCM, full.TCM)),
				RelativeEUC: tcm.Accuracy(tcm.DistanceEUC(out.TCM, prev)),
			}
			res.Points[a] = append(res.Points[a], pt)
			prev = out.TCM
		}
	}
	return res
}

// Table renders the accuracy sweep as one table per app stacked.
func (r *Fig9Result) Table() *metrics.Table {
	t := metrics.NewTable("FIGURE 9. ACCURACY OF CORRELATION TRACKING WITH ADAPTIVE OBJECT SAMPLING (16 threads)",
		"Benchmark", "Rate", "Absolute/ABS", "Relative/ABS", "Absolute/EUC", "Relative/EUC")
	for _, a := range Apps {
		name := a.String()
		for _, p := range r.Points[a] {
			t.AddRow(name, p.Rate.String(),
				fmt.Sprintf("%.2f%%", p.AbsoluteABS*100),
				fmt.Sprintf("%.2f%%", p.RelativeABS*100),
				fmt.Sprintf("%.2f%%", p.AbsoluteEUC*100),
				fmt.Sprintf("%.2f%%", p.RelativeEUC*100))
			name = ""
		}
	}
	return t
}

func (r *Fig9Result) String() string { return r.Table().String() }

// --- Figure 1 ----------------------------------------------------------------

// Fig1Result holds the inherent vs induced correlation maps of Barnes-Hut.
type Fig1Result struct {
	Scale    Scale
	Threads  int
	Inherent *tcm.Map // fine-grained exact tracking (Fig. 1a)
	Induced  *tcm.Map // page-based tracking baseline (Fig. 1b)
}

// Fig1 reproduces the false-sharing illustration: Barnes-Hut with 32
// threads and 4K bodies, tracked once at object grain (exact) and once at
// page grain. A single run, submitted through the pool for uniformity with
// the other generators (one job executes inline).
func Fig1(scale Scale, p *runner.Pool) *Fig1Result {
	threads := 32
	out := RunAll(p, []Spec{{App: AppBarnesHut, Scale: scale, Nodes: 8, Threads: threads, Seed: figSeed,
		Tracking: gos.TrackingExact, TransferOALs: true, PageTracker: true}})[0]
	return &Fig1Result{Scale: scale, Threads: threads, Inherent: out.TCM, Induced: out.PageTCM}
}

// GalaxyContrast quantifies the block structure of a map: the mean
// intra-galaxy pair volume divided by the mean inter-galaxy pair volume
// (threads 0..N/2-1 simulate galaxy one). The inherent map should show a
// much higher contrast than the induced one.
func GalaxyContrast(m *tcm.Map) float64 {
	n := m.N()
	half := n / 2
	var intra, inter float64
	var intraN, interN int
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			same := (i < half) == (j < half)
			if same {
				intra += m.At(i, j)
				intraN++
			} else {
				inter += m.At(i, j)
				interN++
			}
		}
	}
	if interN == 0 || intraN == 0 || inter == 0 {
		return 0
	}
	return (intra / float64(intraN)) / (inter / float64(interN))
}

// String renders both maps as ASCII heat maps plus the contrast measures.
func (r *Fig1Result) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "FIGURE 1. FALSE SHARING EFFECT ON CORRELATION TRACKING (Barnes-Hut, %d threads)\n\n", r.Threads)
	fmt.Fprintf(&sb, "(a) Inherent pattern (fine-grained tracking), galaxy contrast %.2fx\n%s\n",
		GalaxyContrast(r.Inherent), r.Inherent.String())
	fmt.Fprintf(&sb, "(b) Induced pattern (page-based tracking), galaxy contrast %.2fx\n%s",
		GalaxyContrast(r.Induced), r.Induced.String())
	return sb.String()
}
