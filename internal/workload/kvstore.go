package workload

import (
	"fmt"

	"jessica2/internal/gos"
	"jessica2/internal/heap"
	"jessica2/internal/sim"
	"jessica2/internal/stack"
	"jessica2/internal/xrand"
)

// KVMix is a synthetic key-value transaction workload: threads execute
// short lock-protected transactions over a shared record table, drawing
// keys from a Zipf-skewed distribution whose hot window moves with the
// workload phase. It is the adversarial complement of the SPLASH-2 ports:
// fine-grained, lock-heavy (one distributed lock acquire per transaction),
// irregular, and phase-shifting — under the scenario engine's PhaseShift
// schedule the hot set jumps mid-run, which is exactly the "changing
// runtime conditions" an adaptive profiler must chase.
type KVMix struct {
	// Keys is the shared record count; ValueSize the record payload bytes.
	Keys, ValueSize int
	// Rounds is the number of barrier-delimited rounds; each thread runs
	// TxnsPerRound transactions of OpsPerTxn key operations per round.
	Rounds, TxnsPerRound, OpsPerTxn int
	// WriteFraction in [0,1] makes that share of key operations writes.
	WriteFraction float64
	// Locks is the lock-stripe count guarding the table.
	Locks int
	// ZipfS is the skew exponent (>1; near 1 = heavy skew).
	ZipfS float64
	// HotSpan is how far the hot window moves per phase, in keys.
	HotSpan int
	// RoundsPerPhase drives intrinsic phase shifting when no external
	// Phase register is installed (0 disables intrinsic shifting).
	RoundsPerPhase int
	// OpCost is the per-operation compute charge.
	OpCost sim.Time

	records []*heap.Object
	// PhaseTrace records the phase each thread observed per round
	// (thread-major), for tests asserting phase-shift behavior.
	PhaseTrace [][]int
}

// NewKVMix returns a small default instance.
func NewKVMix() *KVMix {
	return &KVMix{
		Keys: 4096, ValueSize: 128,
		Rounds: 12, TxnsPerRound: 96, OpsPerTxn: 4,
		WriteFraction:  0.4,
		Locks:          64,
		ZipfS:          1.1,
		HotSpan:        512,
		RoundsPerPhase: 4,
		OpCost:         300 * sim.Nanosecond,
	}
}

// Name implements Workload.
func (w *KVMix) Name() string { return "KVMix" }

// Characteristics implements Workload.
func (w *KVMix) Characteristics() Characteristics {
	return Characteristics{
		Name:        "KVMix",
		DataSet:     fmt.Sprintf("%d keys x %dB", w.Keys, w.ValueSize),
		Rounds:      w.Rounds,
		Granularity: "Fine",
		ObjectSize:  fmt.Sprintf("%d bytes", w.ValueSize),
	}
}

// kvLockBase keeps KVMix lock ids clear of other workloads' ranges.
const kvLockBase = 9000

// Launch implements Workload.
func (w *KVMix) Launch(k *gos.Kernel, p Params) {
	if w.Locks <= 0 {
		w.Locks = 1
	}
	if w.HotSpan <= 0 {
		w.HotSpan = w.Keys / 8
	}
	reg := k.Reg
	recClass := reg.Class("KVRecord")
	if recClass == nil {
		recClass = reg.DefineClass("KVRecord", w.ValueSize, 1)
	}
	w.records = make([]*heap.Object, w.Keys)
	w.PhaseTrace = make([][]int, p.Threads)
	placement := p.placement(k.NumNodes())
	parties := barrierParties(p)

	mMain := &stack.Method{Name: "KVMix.run"}
	mTxn := &stack.Method{Name: "KVMix.txn"}

	for tid := 0; tid < p.Threads; tid++ {
		tid := tid
		rng := xrand.New(p.Seed).Derive(uint64(tid) + 40427)
		k.SpawnThread(placement[tid], fmt.Sprintf("kv-%d", tid), func(t *gos.Thread) {
			main := t.Stack.Push(mMain, 1)
			// Partitioned table load: each thread creates its key range so
			// homes spread by the first-creator rule.
			lo, hi := blockRange(w.Keys, p.Threads, tid)
			var prev *heap.Object
			for i := lo; i < hi; i++ {
				o := t.Alloc(recClass)
				if prev != nil {
					prev.Refs[0] = o // chain for the sticky-set resolver
				}
				prev = o
				w.records[i] = o
				t.Write(o)
			}
			if lo < hi {
				main.SetRef(0, w.records[lo])
			}
			t.Barrier(0, parties)

			zipf := xrand.NewZipf(rng.Derive(13), w.ZipfS, w.Keys)
			for round := 0; round < w.Rounds; round++ {
				// Phase: externally driven when the scenario engine
				// installed a register, intrinsic round-derived otherwise.
				phase := 0
				if p.Phase != nil {
					phase = p.Phase.Current()
				} else if w.RoundsPerPhase > 0 {
					phase = round / w.RoundsPerPhase
				}
				w.PhaseTrace[tid] = append(w.PhaseTrace[tid], phase)
				offset := phase * w.HotSpan

				for txn := 0; txn < w.TxnsPerRound; txn++ {
					f := t.Stack.Push(mTxn, 1)
					first := (offset + zipf.Rank()) % w.Keys
					f.SetRef(0, w.records[first])
					t.Acquire(kvLockBase + first%w.Locks)
					for op := 0; op < w.OpsPerTxn; op++ {
						idx := first
						if op > 0 {
							// Secondary keys: mostly near the first key
							// (co-accessed record cluster), sometimes a
							// fresh skewed draw.
							if rng.Float64() < 0.75 {
								idx = (first + 1 + rng.Intn(8)) % w.Keys
							} else {
								idx = (offset + zipf.Rank()) % w.Keys
							}
						}
						o := w.records[idx]
						if rng.Float64() < w.WriteFraction {
							t.Write(o)
						} else {
							t.Read(o)
						}
						t.Compute(w.OpCost)
					}
					t.Release(kvLockBase + first%w.Locks)
					t.Stack.Pop()
				}
				t.Barrier(0, parties)
			}
			t.Stack.Pop()
		})
	}
}
