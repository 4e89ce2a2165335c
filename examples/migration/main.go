// Migration example: the paper's motivating scenario for sticky-set
// profiling. A worker thread repeatedly traverses a linked record
// structure (its sticky set). Mid-run it migrates to another node — once
// cold (paying a remote object fault for every record it re-touches) and
// once with the resolved sticky set prefetched alongside the thread
// context, which hides those round-trips.
//
// The example builds a custom workload against the public API: it defines
// its own classes, allocates an object graph, maintains shadow stack
// frames (so the stack profiler can mine invariants), and triggers the
// migration from a safe point.
package main

import (
	"fmt"

	"jessica2"
)

// traversalWorkload is a user-defined workload: each thread owns a linked
// list of records and walks it every interval.
type traversalWorkload struct {
	records   int
	intervals int
	// migrateAt triggers thread 0's migration after this interval.
	migrateAt int
	// prefetch enables sticky-set resolution at migration time.
	prefetch bool

	sess *jessica2.Session
	prof *jessica2.Profiler

	// outcome of the migration, for reporting.
	outcome jessica2.MigrationOutcome
	// faults observed by thread 0 before/after migration.
	faultsBefore, faultsAfter int64
}

func (w *traversalWorkload) Name() string { return "record-traversal" }

func (w *traversalWorkload) Characteristics() jessica2.Characteristics {
	return jessica2.Characteristics{
		Name: w.Name(), DataSet: fmt.Sprintf("%d records", w.records),
		Rounds: w.intervals, Granularity: "Fine", ObjectSize: "128 bytes",
	}
}

func (w *traversalWorkload) Launch(k *jessica2.Kernel, p jessica2.Params) {
	recC := k.Reg.DefineClass("Record", 128, 1)
	mMain := &jessica2.Method{Name: "traversal.run"}
	mWalk := &jessica2.Method{Name: "traversal.walk"}
	eng := w.sess.MigrationEngine()

	for tid := 0; tid < p.Threads; tid++ {
		tid := tid
		k.SpawnThread(tid%k.NumNodes(), fmt.Sprintf("walker-%d", tid), func(t *jessica2.Thread) {
			main := t.Stack.Push(mMain, 2)
			// Build the thread's private record chain (homed locally).
			var head, prev *jessica2.Object
			for i := 0; i < w.records; i++ {
				o := t.Alloc(recC)
				t.Write(o)
				if prev != nil {
					prev.Refs[0] = o
				} else {
					head = o
				}
				prev = o
			}
			main.SetRef(0, head) // the stack-invariant entry point
			t.Barrier(0, p.Threads)

			for round := 0; round < w.intervals; round++ {
				wf := t.Stack.Push(mWalk, 1)
				wf.SetRef(0, head)
				// Two passes per interval (read, then update): the records
				// are "constantly accessed throughout the whole interval",
				// which is what qualifies them for the sticky set.
				for pass := 0; pass < 2; pass++ {
					for o := head; o != nil; o = o.Refs[0] {
						t.Read(o)
						t.Compute(5 * jessica2.Microsecond)
					}
				}
				t.Barrier(0, p.Threads)
				t.Stack.Pop()

				if tid == 0 && round == w.migrateAt {
					w.faultsBefore = t.Stats().Faults
					target := (t.Node().ID() + 1) % k.NumNodes()
					var res *jessica2.Resolution
					if w.prefetch {
						res = w.prof.Resolve(0)
					}
					w.outcome = eng.MigrateSelf(t, target, res)
				}
			}
			if tid == 0 {
				w.faultsAfter = t.Stats().Faults
			}
			t.Stack.Pop()
		})
	}
}

func run(prefetch bool) {
	sess := jessica2.NewSession(jessica2.DefaultConfig())
	w := &traversalWorkload{
		records: 400, intervals: 12, migrateAt: 5,
		prefetch: prefetch, sess: sess,
	}
	if err := sess.Launch(w, jessica2.Params{Threads: 4, Seed: 11}); err != nil {
		panic(err)
	}

	stackCfg := jessica2.DefaultStackConfig()
	fp := jessica2.FootprintConfig{FootprinterConfig: jessica2.DefaultFootprinter()}
	prof, err := sess.AttachProfiling(jessica2.ProfileConfig{
		Rate: jessica2.FullRate, Stack: &stackCfg, Footprint: &fp,
	})
	if err != nil {
		panic(err)
	}
	w.prof = prof
	if _, err := sess.Run(); err != nil {
		panic(err)
	}
	rep, err := sess.Report()
	if err != nil {
		panic(err)
	}

	mode := "cold migration      "
	if prefetch {
		mode = "sticky-set prefetch "
	}
	post := w.faultsAfter - w.faultsBefore
	fmt.Printf("%s: context=%4dB prefetch=%6dB (%3d objs) transfer=%-10v post-migration faults=%d  total=%v\n",
		mode, w.outcome.ContextBytes, w.outcome.PrefetchBytes,
		w.outcome.PrefetchObjs, w.outcome.TransferTime, post, rep.ExecTime())
}

func main() {
	fmt.Println("thread migration with and without sticky-set prefetch")
	fmt.Println("(the prefetch rides the migration message; cold migration re-faults every record)")
	fmt.Println()
	run(false)
	run(true)
}
