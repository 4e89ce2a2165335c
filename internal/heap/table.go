package heap

// Table pages are tablePageLen entries long.
const (
	tablePageShift = 8
	tablePageLen   = 1 << tablePageShift
	tablePageMask  = tablePageLen - 1
)

// Table is a dense side table of T values indexed by ObjectID: per-thread
// and per-profiler access state that would otherwise sit in a map keyed by
// object. Entries live by value in fixed-size pages. A page is allocated,
// zeroed, the first time an ID in its range is touched and never moves
// afterwards, so a pointer returned by At stays valid for the table's
// lifetime, across later growth and across a parked proc. Untouched ID
// ranges cost one nil page pointer each, so a table costs memory in
// proportion to the ranges its owner touches rather than to the whole heap.
//
// The zero Table is empty and ready to use.
type Table[T any] struct {
	pages []*[tablePageLen]T
}

// At returns the entry for id, allocating its page on first touch. A fresh
// entry is T's zero value; owners typically stamp entries with an epoch so
// that a stale stamp reads as absent and no per-epoch clearing is needed.
func (tb *Table[T]) At(id ObjectID) *T {
	idx := int(id) - 1
	p := idx >> tablePageShift
	if p >= len(tb.pages) {
		tb.pages = append(tb.pages, make([]*[tablePageLen]T, p+1-len(tb.pages))...)
	}
	pg := tb.pages[p]
	if pg == nil {
		pg = new([tablePageLen]T)
		tb.pages[p] = pg
	}
	return &pg[idx&tablePageMask]
}

// Clear zeroes every entry in place. Pages stay allocated, so pointers
// returned by At remain valid and now point at zero entries.
func (tb *Table[T]) Clear() {
	for _, pg := range tb.pages {
		if pg != nil {
			clear(pg[:])
		}
	}
}
