// Package migration implements the thread migration engine: capturing a
// thread's context (portable Java frames), shipping it to a target node,
// optionally prefetching the resolved sticky set along with it, and
// accounting the direct cost (context + prefetch transfer) against the
// indirect cost the paper emphasizes — the remote object faults that follow
// a migration when the sticky set is left behind.
package migration

import (
	"jessica2/internal/gos"
	"jessica2/internal/heap"
	"jessica2/internal/sim"
	"jessica2/internal/sticky"
)

// Migrated context sizes, typical of the paper's Kaffe port.
const (
	// contextBaseBytes covers thread metadata (registers, monitor state).
	contextBaseBytes = 256
	// frameBytes approximates one portable Java frame (slots + PCs).
	frameBytes = 96
	// slotBytes adds per-slot payload.
	slotBytes = 8
)

// Outcome reports one migration.
type Outcome struct {
	Thread        int
	From, To      int
	ContextBytes  int
	PrefetchBytes int64
	PrefetchObjs  int
	// TransferTime is the virtual time the thread was blocked migrating.
	TransferTime sim.Time
	// ResolutionCost is the CPU charged for sticky-set resolution.
	ResolutionCost sim.Time
}

// Engine performs migrations on a kernel.
type Engine struct {
	k *gos.Kernel

	// History records completed migrations in order.
	History []Outcome
}

// NewEngine returns a migration engine for k.
func NewEngine(k *gos.Kernel) *Engine {
	return &Engine{k: k}
}

// ContextBytes estimates the direct context size for t from its live shadow
// stack.
func (e *Engine) ContextBytes(t *gos.Thread) int {
	n := contextBaseBytes
	depth := t.Stack.Depth()
	n += depth * frameBytes
	for i := 0; i < depth; i++ {
		n += t.Stack.FrameAt(i).NumSlots() * slotBytes
	}
	return n
}

// MigrateSelf moves the calling thread to the target node. It must be
// invoked from the thread's own body at a safe point (interval boundary).
// If res is non-nil, the resolved sticky set is prefetched with the thread:
// its bytes ride in the migration message and its objects are installed
// valid in the target node's cache, eliminating the predictable remote
// faults. Returns the recorded outcome.
func (e *Engine) MigrateSelf(t *gos.Thread, target int, res *sticky.Resolution) Outcome {
	out := Outcome{
		Thread: t.ID(),
		From:   t.Node().ID(),
		To:     target,
	}
	out.ContextBytes = e.ContextBytes(t)
	payload := out.ContextBytes
	var objs []*heap.Object
	if res != nil {
		out.PrefetchBytes = res.Bytes
		out.PrefetchObjs = len(res.Objects)
		out.ResolutionCost = res.Cost
		t.Charge(res.Cost)
		payload += int(res.Bytes)
		objs = res.Objects
	}
	start := t.Kernel().Eng.Now()
	t.MoveTo(target, payload)
	if len(objs) > 0 {
		e.k.InstallPrefetched(target, objs)
	}
	out.TransferTime = t.Kernel().Eng.Now() - start
	e.History = append(e.History, out)
	return out
}
