// Command bench is the repository benchmark. It drives four workloads of
// the simulated distributed JVM through the public session API, times them
// end to end, checks their outputs, and from a traced pass reports a
// per-layer ledger: spans around the calls into each layer, the layers'
// own counters, and a CPU profile folded by layer. See README.md.
//
//	bash bench/run.sh                  # every workload, untraced then traced
//	bash bench/run.sh -workload paper-bh -trace 1
//	bash bench/run.sh -compare a1.json,a2.json b1.json,b2.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// resultPrefix marks the line carrying a pass's full record, which a
// parent process collects from its children.
const resultPrefix = "RESULT "

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "run one pass of this workload; without it every workload runs, untraced then traced, each pass in its own process")
	seed := fs.Uint64("seed", 42, "workload seed")
	seconds := fs.Int("seconds", 12, "length of a pass's timed window, in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced pass (per-layer ledger), 0 the untraced pass (end-to-end metrics)")
	out := fs.String("out", "", "write the pass records to this JSON file")
	compare := fs.Bool("compare", false, "compare two sets of result files: -compare A B, each a comma-separated list of files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare takes two comma-separated lists of result files")
			return 2
		}
		return runCompare(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if fs.NArg() > 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "bench: want -seconds >= 1, -trace 0 or 1, and no positional arguments")
		return 2
	}
	if *name == "" {
		return runAll(*seed, *seconds, *out, stdout, stderr)
	}
	w, err := workloadByName(*name)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	rec, err := runPass(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1, 0)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
		return 1
	}
	printPass(stdout, rec)
	line, err := json.Marshal(rec)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
		return 1
	}
	fmt.Fprintf(stdout, "%s%s\n", resultPrefix, line)
	if *out != "" {
		if err := writeResults(*out, []*passRecord{rec}); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	if line, err = resultLine(rec); err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if len(rec.Problems) > 0 {
		return 1
	}
	return 0
}

// runAll runs every workload's untraced and traced pass, each in a child
// process of its own so that no pass inherits another's heap, and relays
// their reports.
func runAll(seed uint64, seconds int, out string, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	status := 0
	var recs []*passRecord
	for _, w := range workloads {
		for _, trace := range []string{"0", "1"} {
			rec, err := runChild(exe, stdout, stderr, "-workload", w.name, "-seed", strconv.FormatUint(seed, 10),
				"-seconds", strconv.Itoa(seconds), "-trace", trace)
			if err != nil {
				fmt.Fprintf(stderr, "bench: %s -trace %s: %v\n", w.name, trace, err)
				status = 1
			}
			if rec != nil {
				recs = append(recs, rec)
			}
		}
	}
	if out != "" {
		if err := writeResults(out, recs); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	return status
}

// runChild runs one pass in a child process, relaying its report and
// returning its record.
func runChild(exe string, stdout, stderr io.Writer, args ...string) (*passRecord, error) {
	cmd := exec.Command(exe, args...)
	cmd.Stderr = stderr
	pipe, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	var rec *passRecord
	var parseErr error
	sc := bufio.NewScanner(pipe)
	sc.Buffer(nil, 1<<24)
	for sc.Scan() {
		if js, ok := strings.CutPrefix(sc.Text(), resultPrefix); ok {
			rec = new(passRecord)
			parseErr = json.Unmarshal([]byte(js), rec)
			continue
		}
		fmt.Fprintln(stdout, sc.Text())
	}
	if err := cmd.Wait(); err != nil {
		return rec, err
	}
	if parseErr != nil {
		return nil, parseErr
	}
	if rec == nil {
		return nil, fmt.Errorf("no result record")
	}
	return rec, sc.Err()
}

// resultsFile is the JSON file -out writes and -compare reads.
type resultsFile struct {
	GoVersion string        `json:"go"`
	NumCPU    int           `json:"nproc"`
	Passes    []*passRecord `json:"passes"`
}

func writeResults(path string, recs []*passRecord) error {
	data, err := json.MarshalIndent(resultsFile{GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(), Passes: recs}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// resultLine is the one-line result the benchmark ends its output with:
// the end-to-end metrics BENCHMARK.json lists for an untraced pass, the
// per-layer ledger for a traced one.
func resultLine(rec *passRecord) ([]byte, error) {
	var names []string
	if rec.Trace {
		for _, c := range perLayer {
			names = append(names, c.Name)
		}
	} else {
		for _, d := range endToEnd {
			if d.Contract {
				names = append(names, d.Name)
			}
		}
	}
	metrics := make(map[string]metricValue, len(names))
	for _, n := range names {
		m, ok := rec.Metrics[n]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", n)
		}
		metrics[n] = m
	}
	return json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{len(rec.Problems) == 0, rec.Iterations, rec.Failed, metrics})
}

func printPass(w io.Writer, rec *passRecord) {
	mode := "untraced"
	if rec.Trace {
		mode = "traced"
	}
	fmt.Fprintf(w, "== %s  seed %d  %s  %d iterations in %.1f s  sim_digest %s  (%s, nproc %d)\n",
		rec.Workload, rec.Seed, mode, rec.Iterations, rec.WindowS, rec.Digest, runtime.Version(), runtime.NumCPU())
	for _, name := range orderedNames(rec) {
		m := rec.Metrics[name]
		fmt.Fprintf(w, "   %-34s %16.6g %s\n", name, m.Value, m.Unit)
	}
	if len(rec.Problems) == 0 {
		fmt.Fprintln(w, "   checks: ok")
		return
	}
	fmt.Fprintf(w, "   checks: %d of %d iterations FAILED\n", rec.Failed, rec.Iterations)
	for _, p := range rec.Problems {
		fmt.Fprintln(w, "     -", p)
	}
}
