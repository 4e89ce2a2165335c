// Package golden checks an example's standard output against its
// checked-in golden file, testdata/stdout.golden in the example's
// directory. Regenerate the files, after an intentional output change
// only, with:
//
//	JESSICA2_UPDATE_GOLDEN=1 go test ./examples/...
package golden

import (
	"os"
	"path/filepath"
	"testing"
)

// path is the golden file, relative to the example's package directory.
var path = filepath.Join("testdata", "stdout.golden")

// Check runs main with os.Stdout redirected to a temporary file and fails
// the test unless what main printed equals the golden file byte for byte.
func Check(t *testing.T, main func()) {
	t.Helper()
	f, err := os.Create(filepath.Join(t.TempDir(), "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	stdout := os.Stdout
	os.Stdout = f
	defer func() { os.Stdout = stdout }()
	main()
	os.Stdout = stdout
	got, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	if os.Getenv("JESSICA2_UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with JESSICA2_UPDATE_GOLDEN=1 to create): %v", err)
	}
	if string(got) != string(want) {
		t.Errorf("stdout differs from %s\n--- got\n%s\n--- want\n%s", path, got, want)
	}
}
