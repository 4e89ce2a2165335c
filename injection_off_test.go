package jessica2_test

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// injectionOffGoldenPath is the checked-in artifact holding the rendered
// golden traces of every determinism case with failure injection disabled.
// The file was generated from the tree as it stood before the failure
// subsystem landed, so comparing against it proves the crash/partition/
// flush-loss machinery is byte-invisible when not configured — the CI
// chaos job's injection-off identity gate.
const injectionOffGoldenPath = "testdata/golden_injection_off.txt"

// injectionOffGolden renders every golden case, unperturbed and under the
// storm scenario, into one deterministic document.
func injectionOffGolden(t *testing.T) string {
	t.Helper()
	var sb strings.Builder
	for _, c := range goldenCases() {
		fmt.Fprintf(&sb, "===== %s =====\n", c.name)
		sb.WriteString(goldenTrace(t, c, nil, 42))
		fmt.Fprintf(&sb, "===== %s/storm =====\n", c.name)
		sb.WriteString(goldenTrace(t, c, stormScenario(t), 42))
	}
	return sb.String()
}

// TestInjectionDisabledGoldenIdentity compares the current traces against
// the pre-failure-subsystem artifact. Regenerate (only when an intentional
// report change lands) with:
//
//	JESSICA2_UPDATE_GOLDEN=1 go test -run TestInjectionDisabledGoldenIdentity .
func TestInjectionDisabledGoldenIdentity(t *testing.T) {
	got := injectionOffGolden(t)
	if os.Getenv("JESSICA2_UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll(filepath.Dir(injectionOffGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(injectionOffGoldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("updated %s (%d bytes)", injectionOffGoldenPath, len(got))
		return
	}
	want, err := os.ReadFile(injectionOffGoldenPath)
	if err != nil {
		t.Fatalf("missing golden artifact (run with JESSICA2_UPDATE_GOLDEN=1 to create): %v", err)
	}
	if got != string(want) {
		i := 0
		for i < len(got) && i < len(want) && got[i] == want[i] {
			i++
		}
		lo, hi := i-120, i+120
		if lo < 0 {
			lo = 0
		}
		clip := func(s string) string {
			if hi < len(s) {
				return s[lo:hi]
			}
			return s[lo:]
		}
		t.Fatalf("injection-disabled traces diverged from the pre-PR artifact at byte %d\n--- got\n%s\n--- want\n%s",
			i, clip(got), clip(string(want)))
	}
}
