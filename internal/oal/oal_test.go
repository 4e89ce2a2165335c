package oal

import "testing"

func TestRecordWireBytes(t *testing.T) {
	r := &Record{Thread: 3, Node: 1, Interval: 7, StartPC: 100, EndPC: 240}
	if r.WireBytes() != 24 {
		t.Fatalf("empty record wire = %d, want header 24", r.WireBytes())
	}
	r.Entries = append(r.Entries, Entry{Obj: 5, Bytes: 64}, Entry{Obj: 9, Bytes: 128, Write: true})
	if r.WireBytes() != 24+16 {
		t.Fatalf("wire = %d, want 40", r.WireBytes())
	}
}

func TestIntervalContextFields(t *testing.T) {
	// The record carries the interval context the paper packs with OALs:
	// start and end PCs delimiting the interval.
	r := &Record{StartPC: 10, EndPC: 50}
	if r.EndPC-r.StartPC != 40 {
		t.Fatal("context arithmetic broken")
	}
}
