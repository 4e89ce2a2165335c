// Package pagesim is the comparison baseline: page-based active correlation
// tracking in the style of D-CVM (Thitikamol & Keleher), which the paper
// argues "can only reveal the induced sharing pattern rather than the
// application's inherent pattern after the effect of false-sharing". It
// observes the same access stream as the fine-grained profiler but logs at
// page granularity over the allocation layout, producing the Fig. 1(b)
// induced correlation map.
package pagesim

import (
	"jessica2/internal/gos"
	"jessica2/internal/heap"
	"jessica2/internal/tcm"
)

// Tracker accrues page-grain sharing. It implements gos.AccessObserver.
type Tracker struct {
	threads int
	// pages maps page number -> set of accessing threads.
	pages map[int64]map[int]struct{}
}

// NewTracker returns a tracker for a system with the given thread count.
func NewTracker(threads int) *Tracker {
	return &Tracker{threads: threads, pages: make(map[int64]map[int]struct{})}
}

// OnAccess records the page(s) the object occupies as touched by t. Small
// objects co-located on a page alias into the same page entry — exactly the
// false sharing that destroys the inherent pattern.
func (tr *Tracker) OnAccess(t *gos.Thread, o *heap.Object, write, first bool) {
	if !first {
		return
	}
	firstPage, lastPage := o.PageSpan()
	// Large objects (multi-page arrays) touch only their first page here
	// unless the whole object is logged; the paper's page-DSM logs the
	// faulted pages. We log the full span for writes (whole-object diffs)
	// and the first page for reads of multi-page objects, approximating
	// partial traversal.
	if !write && lastPage > firstPage {
		lastPage = firstPage
	}
	for p := firstPage; p <= lastPage; p++ {
		set := tr.pages[p]
		if set == nil {
			set = make(map[int]struct{}, 2)
			tr.pages[p] = set
		}
		set[t.ID()] = struct{}{}
	}
}

// OnIntervalClose is a no-op; page tracking has no interval bookkeeping in
// this baseline.
func (tr *Tracker) OnIntervalClose(t *gos.Thread) {}

// Build produces the induced correlation map: every shared page contributes
// a full page size to every pair of threads that touched it.
func (tr *Tracker) Build() *tcm.Map {
	b := tcm.NewBuilder(tr.threads)
	for page, set := range tr.pages {
		for t := range set {
			b.AddAccess(t, page, float64(heap.PageSize))
		}
	}
	m, _ := b.Build()
	return m
}
