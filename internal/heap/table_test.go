package heap

import "testing"

// TestTableEntriesStayPut: entries start zero, keep their address and value
// while the table grows past them, and Clear zeroes them in place.
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
	tb.Clear()
	if *first != 0 || *far != 0 {
		t.Fatalf("Clear left %d and %d, want zeros", *first, *far)
	}
	if tb.At(1) != first {
		t.Fatalf("Clear moved entry 1")
	}
}
