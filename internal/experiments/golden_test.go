package experiments

import (
	"os"
	"strings"
	"testing"

	"jessica2/internal/runner"
)

// goldenFigures holds the FigS/CL/R/T/G/W tables at testScale and the
// paper's Tables I–V and Figure 9 at tableScale, one "== <Name> ==" section
// each. Every figure is a pure function of its seed, so the rendering must
// match the file byte for byte through a nil pool and through a parallel
// one: the check covers repeat determinism and serial/parallel identity at
// once.
const goldenFigures = "testdata/golden_figures.txt"

// tableScale is the dataset scale of the paper's own tables in the golden,
// the scale `djvmbench -all -scale 16` renders them at.
const tableScale = Scale(16)

// checkGolden renders one figure through a nil pool and a 3-worker pool and
// compares each rendering against its golden section.
func checkGolden(t *testing.T, name string, render func(*runner.Pool) string) {
	t.Helper()
	data, err := os.ReadFile(goldenFigures)
	if err != nil {
		t.Fatal(err)
	}
	_, rest, ok := strings.Cut(string(data), "== "+name+" ==\n")
	if !ok {
		t.Fatalf("%s: no %s section", goldenFigures, name)
	}
	want, _, _ := strings.Cut(rest, "\n== ")
	want = strings.TrimRight(want, "\n") + "\n"
	for _, p := range []*runner.Pool{nil, runner.New(3)} {
		if got := render(p); got != want {
			t.Fatalf("%s (%d workers) diverged from %s:\n--- got\n%s\n--- want\n%s",
				name, p.Workers(), goldenFigures, got, want)
		}
	}
}

func TestFigSDeterministic(t *testing.T) {
	checkGolden(t, "FigS", func(p *runner.Pool) string { return FigS(testScale, p).Table().String() })
}

func TestFigCLDeterministic(t *testing.T) {
	checkGolden(t, "FigCL", func(p *runner.Pool) string { return FigCL(testScale, p).Table().String() })
}

func TestFigRDeterministic(t *testing.T) {
	checkGolden(t, "FigR", func(p *runner.Pool) string { return FigR(testScale, p).Table().String() })
}

func TestFigTDeterministic(t *testing.T) {
	checkGolden(t, "FigT", func(p *runner.Pool) string { return FigT(testScale, p).Table().String() })
}

func TestFigGDeterministic(t *testing.T) {
	checkGolden(t, "FigG", func(p *runner.Pool) string { return FigG(testScale, p).Table().String() })
}

func TestFigWDeterministic(t *testing.T) {
	checkGolden(t, "FigW", func(p *runner.Pool) string { return FigW(testScale, p).Table().String() })
}

func TestTable1Deterministic(t *testing.T) {
	checkGolden(t, "Table1", func(*runner.Pool) string { return Table1(tableScale).String() })
}

func TestTable2Deterministic(t *testing.T) {
	checkGolden(t, "Table2", func(p *runner.Pool) string { return Table2(tableScale, p).Table().String() })
}

func TestTable3Deterministic(t *testing.T) {
	checkGolden(t, "Table3", func(p *runner.Pool) string { return Table3(tableScale, p).Table().String() })
}

func TestTable4Deterministic(t *testing.T) {
	checkGolden(t, "Table4", func(p *runner.Pool) string { return Table4(tableScale, p).Table().String() })
}

func TestTable5Deterministic(t *testing.T) {
	checkGolden(t, "Table5", func(p *runner.Pool) string { return Table5(tableScale, p).Table().String() })
}

func TestFig9Deterministic(t *testing.T) {
	checkGolden(t, "Fig9", func(p *runner.Pool) string { return Fig9(tableScale, p).Table().String() })
}
