package heap

// Table pages are tablePageLen entries long.
const (
	tablePageShift = 8
	tablePageLen   = 1 << tablePageShift
	tablePageMask  = tablePageLen - 1
)

// Table is a dense side table of T values indexed by ObjectID: per-node,
// per-thread and per-profiler object state that would otherwise sit in a map
// keyed by object. Entries live by value in fixed-size pages. A page is
// allocated, zeroed, the first time an ID in its range is touched and never
// moves afterwards, so a pointer returned by At stays valid for the table's
// lifetime, across later growth and across a parked proc. Untouched ID
// ranges cost one nil page pointer each, so a table costs memory in
// proportion to the ranges its owner touches rather than to the whole heap.
// Owners keep T free of pointers, so the collector never scans the pages,
// and small: the access path reads three tables on every access, so an
// entry's size sets how many of them share a cache line.
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

// Peek returns the entry for id like At, or nil when id's page was never
// touched. It never allocates, so readers that must not grow the table use
// it; an entry on a touched page may still be T's zero value.
func (tb *Table[T]) Peek(id ObjectID) *T {
	idx := int(id) - 1
	p := idx >> tablePageShift
	if idx < 0 || p >= len(tb.pages) || tb.pages[p] == nil {
		return nil
	}
	return &tb.pages[p][idx&tablePageMask]
}
