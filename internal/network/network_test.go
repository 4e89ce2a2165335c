package network

import (
	"fmt"
	"strings"
	"testing"

	"jessica2/internal/sim"
)

func TestTransferTimeMath(t *testing.T) {
	n := New(sim.NewEngine())
	// 100 Mbps is 12.5 bytes per microsecond: 1000 bytes take 80 us, plus
	// the 120 us latency.
	if got, want := n.TransferTime(1000), 200*sim.Microsecond; got != want {
		t.Fatalf("transfer time = %v, want %v", got, want)
	}
	want := Latency + sim.Time(int64(1000)*int64(sim.Second)/BandwidthBytesPerSec)
	if got := n.TransferTime(1000); got != want {
		t.Fatalf("transfer time = %v, want latency + serialization %v", got, want)
	}
}

func TestDeliveryAndAccounting(t *testing.T) {
	eng := sim.NewEngine()
	n := New(eng)
	var payload any
	deliveredAt := sim.Time(-1)
	n.Bind(1, func(m *Message) { payload, deliveredAt = m.Payload, eng.Now() })
	n.Bind(0, func(m *Message) {})
	sentAt := eng.Now()
	n.Send(0, 1, CatGOSData, 500, "payload")
	if n.inFlight != 1 {
		t.Fatal("message not in flight")
	}
	eng.Run()
	if payload == nil || payload.(string) != "payload" {
		t.Fatal("message not delivered")
	}
	if deliveredAt <= sentAt {
		t.Fatal("no latency applied")
	}
	st := n.Stats()
	if st.CatBytes(CatGOSData) != 500 {
		t.Fatalf("gos bytes = %d", st.CatBytes(CatGOSData))
	}
	if st.HeaderBytesTotal != HeaderBytes {
		t.Fatal("header not accounted")
	}
	if n.inFlight != 0 {
		t.Fatal("in-flight count not decremented")
	}
}

func TestPiggybackParts(t *testing.T) {
	eng := sim.NewEngine()
	n := New(eng)
	n.Bind(0, func(m *Message) {})
	var parts int
	n.Bind(1, func(m *Message) { parts = len(m.Parts) })
	n.SendParts(0, 1, []Part{
		{Cat: CatControl, Bytes: 16},
		{Cat: CatOAL, Bytes: 4000},
	}, nil)
	eng.Run()
	if parts != 2 {
		t.Fatalf("parts = %d", parts)
	}
	st := n.Stats()
	if st.CatBytes(CatControl) != 16 || st.CatBytes(CatOAL) != 4000 {
		t.Fatalf("split accounting wrong: %v", st)
	}
	// One message, one header.
	if st.HeaderBytesTotal != HeaderBytes {
		t.Fatal("piggyback must pay one header")
	}
}

func TestLocalDeliveryFreeAndUncounted(t *testing.T) {
	eng := sim.NewEngine()
	n := New(eng)
	delivered := false
	n.Bind(0, func(m *Message) { delivered = true })
	n.Send(0, 0, CatOAL, 9999, nil)
	eng.Run()
	if !delivered {
		t.Fatal("local message lost")
	}
	if n.Stats().TotalBytes() != 0 {
		t.Fatal("local messages must not count as traffic")
	}
	if eng.Now() != 0 {
		t.Fatal("local delivery must be instantaneous")
	}
}

func TestUnboundHandlerPanics(t *testing.T) {
	// Node 5 lies past every bound id; node 1 is a gap below bound node 2.
	for _, to := range []NodeID{5, 1} {
		eng := sim.NewEngine()
		n := New(eng)
		n.Bind(0, func(m *Message) {})
		n.Bind(2, func(m *Message) {})
		n.Send(0, to, CatControl, 10, nil)
		func() {
			defer func() {
				if r := recover(); !strings.Contains(fmt.Sprint(r), "no handler bound") {
					t.Errorf("send to unbound node %d: recovered %v, want the no-handler panic", to, r)
				}
			}()
			eng.Run()
		}()
	}
}

func TestFIFOPerOrderedSends(t *testing.T) {
	// Equal-size messages sent back-to-back arrive in order.
	eng := sim.NewEngine()
	n := New(eng)
	n.Bind(0, func(m *Message) {})
	var order []int
	n.Bind(1, func(m *Message) { order = append(order, m.Payload.(int)) })
	for i := 0; i < 5; i++ {
		n.Send(0, 1, CatControl, 64, i)
	}
	eng.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("order = %v", order)
		}
	}
}

func TestCategoryString(t *testing.T) {
	if CatOAL.String() != "oal" || CatGOSData.String() != "gos-data" {
		t.Fatal("category names wrong")
	}
	if Category(99).String() == "" {
		t.Fatal("unknown category must render")
	}
	if len(Stats{}.String()) == 0 {
		t.Fatal("stats string empty")
	}
}

func TestMessageTotalBytes(t *testing.T) {
	m := &Message{Parts: []Part{{CatControl, 10}, {CatOAL, 20}}}
	if m.TotalBytes() != 94 {
		t.Fatalf("total = %d", m.TotalBytes())
	}
}

// TestWarmSendAllocatesNothing: once the free list holds a message, a
// Send-to-handler round trip reuses it and schedules it as its own
// delivery event, so it allocates nothing.
func TestWarmSendAllocatesNothing(t *testing.T) {
	eng := sim.NewEngine()
	n := New(eng)
	payload := &struct{ v int }{7}
	got := 0
	n.Bind(0, func(m *Message) {})
	n.Bind(1, func(m *Message) { got += m.Payload.(*struct{ v int }).v })
	roundTrip := func() {
		n.Send(0, 1, CatControl, 64, payload)
		n.Send(1, 1, CatControl, 64, payload) // local delivery
		eng.Run()
	}
	// Warm the scheduler too: each round trip lands in a later ring
	// bucket, and a bucket's first event allocates its heap.
	for i := 0; i < 1000; i++ {
		roundTrip()
	}
	if allocs := testing.AllocsPerRun(100, roundTrip); allocs != 0 {
		t.Fatalf("warm send round trip allocates %v times, want 0", allocs)
	}
	if got != 2*1101*7 {
		t.Fatalf("handler saw %d, want %d", got, 2*1101*7)
	}
}
