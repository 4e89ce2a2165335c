package experiments

import (
	"fmt"
	"testing"

	"jessica2/internal/sampling"
)

// TestFigSAdaptiveVsFixedUnderPerturbation is the acceptance check for the
// scenario engine: under at least one perturbation schedule, adaptive
// sampling must behave measurably differently from fixed-rate sampling
// (the whole point of validating the adaptive profilers on non-uniform
// clusters).
func TestFigSAdaptiveVsFixedUnderPerturbation(t *testing.T) {
	res := FigS(8, nil)
	wantRows := len(FigSScenarios) * 3
	if len(res.Cells) != wantRows {
		t.Fatalf("rows = %d, want %d", len(res.Cells), wantRows)
	}

	differs := false
	for _, name := range FigSScenarios {
		if name == "none" {
			continue
		}
		if adaptiveDiffers(res, name, 0.001) {
			differs = true
		}
	}
	if !differs {
		t.Errorf("adaptive sampling indistinguishable from fixed-rate under every scenario:\n%s", res)
	}

	// The adaptive controller must actually adapt — walk the rate ladder —
	// under the phase-shifting scenario.
	ad := res.Row("phased", "adaptive")
	if ad == nil {
		t.Fatal("no adaptive row for the phased scenario")
	}
	if ad.RateRaises == 0 {
		t.Errorf("adaptive controller never raised the rate under the phased scenario:\n%s", res)
	}
	if ad.FinalRate < 1 && ad.FinalRate != sampling.FullRate {
		t.Errorf("adaptive final rate %v out of range", ad.FinalRate)
	}

	// Perturbations must actually perturb: the storm scenario's full-rate
	// run cannot match the unperturbed full-rate execution time.
	if a, b := res.Row("none", "full"), res.Row("storm", "full"); a.Exec == b.Exec {
		t.Errorf("storm scenario did not change the execution time (%v)", a.Exec)
	}

	// Sanity on the reference rows.
	for _, name := range FigSScenarios {
		if full := res.Row(name, "full"); full == nil || full.AccuracyABS != 1 {
			t.Errorf("bad full-rate reference row for %q: %+v", name, full)
		}
	}
}

// adaptiveDiffers reports whether, under the named scenario, adaptive
// sampling behaved measurably differently from the fixed rate: a different
// final effective rate, or an accuracy gap beyond eps.
func adaptiveDiffers(r *FigSResult, scenarioName string, eps float64) bool {
	ad := r.Row(scenarioName, "adaptive")
	fx := r.Row(scenarioName, fmt.Sprintf("fixed-%v", FigSFixedRate))
	if ad == nil || fx == nil {
		return false
	}
	if ad.FinalRate != fx.FinalRate {
		return true
	}
	diff := ad.AccuracyABS - fx.AccuracyABS
	return diff > eps || diff < -eps
}
