package oal

import (
	"reflect"
	"testing"
)

func TestRecordWireBytes(t *testing.T) {
	r := &Record{Thread: 3}
	if r.WireBytes() != 24 {
		t.Fatalf("empty record wire = %d, want header 24", r.WireBytes())
	}
	r.Entries = append(r.Entries, Entry{Obj: 5, Bytes: 64}, Entry{Obj: 9, Bytes: 128})
	if r.WireBytes() != 24+16 {
		t.Fatalf("wire = %d, want 40", r.WireBytes())
	}
}

// pointerFree reports whether a value of typ holds no pointer the
// collector would scan.
func pointerFree(typ reflect.Type) bool {
	switch k := typ.Kind(); {
	case k == reflect.Struct:
		for i := 0; i < typ.NumField(); i++ {
			if !pointerFree(typ.Field(i).Type) {
				return false
			}
		}
		return true
	case k == reflect.Array:
		return pointerFree(typ.Elem())
	default:
		return k >= reflect.Bool && k <= reflect.Complex128
	}
}

// TestEntryIsSmallAndPointerFree: an OAL entry holds no pointer, so record
// buffers cost the collector nothing to scan, and it fits in 16 bytes.
func TestEntryIsSmallAndPointerFree(t *testing.T) {
	typ := reflect.TypeFor[Entry]()
	if !pointerFree(typ) {
		t.Errorf("%v holds a pointer", typ)
	}
	if typ.Size() > 16 {
		t.Errorf("%v is %d bytes, want at most 16", typ, typ.Size())
	}
}
