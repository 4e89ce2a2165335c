package heap

import "testing"

// TestTableEntriesStayPut: entries start zero and keep their address and
// value while the table grows past them.
func TestTableEntriesStayPut(t *testing.T) {
	var tb Table[int]
	first := tb.At(1)
	if *first != 0 {
		t.Fatalf("fresh entry = %d, want 0", *first)
	}
	*first = 7
	far := tb.At(10 * tablePageLen) // grows the page index nine pages out
	*far = 9
	if tb.At(1) != first || *first != 7 {
		t.Fatalf("entry 1 moved or changed while the table grew")
	}
	if got := len(tb.pages); got != 10 {
		t.Fatalf("pages = %d, want 10", got)
	}
	for p, pg := range tb.pages {
		if (pg != nil) != (p == 0 || p == 9) {
			t.Fatalf("page %d allocated = %v; only touched pages should be", p, pg != nil)
		}
	}
}

// TestTablePeek: Peek finds nothing in a range no ID was touched in, even
// inside the page index, and allocates nothing doing so; for a touched ID
// it returns At's pointer.
func TestTablePeek(t *testing.T) {
	var tb Table[int]
	if tb.Peek(1) != nil {
		t.Fatal("Peek on an empty table returned an entry")
	}
	e := tb.At(3 * tablePageLen) // page 2; pages 0 and 1 stay untouched
	*e = 5
	for _, id := range []ObjectID{InvalidObject, 1, tablePageLen + 1, 3*tablePageLen + 1, 100 * tablePageLen} {
		if tb.Peek(id) != nil {
			t.Fatalf("Peek(%d) returned an entry of an untouched range", id)
		}
	}
	if got := tb.Peek(3 * tablePageLen); got != e || *got != 5 {
		t.Fatalf("Peek of a touched ID = %p, want At's %p", got, e)
	}
	if tb.Peek(2*tablePageLen+1) == nil {
		t.Fatal("Peek found no entry on a touched page")
	}
	if got := len(tb.pages); got != 3 {
		t.Fatalf("pages = %d after Peek, want 3", got)
	}
	allocs := testing.AllocsPerRun(100, func() {
		tb.Peek(1)
		tb.Peek(100 * tablePageLen)
		tb.Peek(3 * tablePageLen)
	})
	if allocs != 0 {
		t.Fatalf("Peek allocated %v times per run, want 0", allocs)
	}
}
