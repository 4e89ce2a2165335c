package network

import (
	"testing"

	"jessica2/internal/sim"
)

// fixedShaper returns a constant delay regardless of message or time.
type fixedShaper struct{ d sim.Time }

func (s fixedShaper) TransferTime(sim.Time, NodeID, NodeID, int) sim.Time { return s.d }

// TestShaperDelayClamping: pathological shaper outputs must never produce
// negative delivery delays — the message arrives at or after its send time,
// and the run keeps terminating.
func TestShaperDelayClamping(t *testing.T) {
	cases := []struct {
		name   string
		shaper Shaper
		// wantMin/wantMax bound the accepted delivery delay.
		wantMin, wantMax sim.Time
	}{
		{"negative-latency-from-jitter", fixedShaper{-5 * sim.Millisecond}, 0, 0},
		{"zero-delay", fixedShaper{0}, 0, 0},
		{"normal", fixedShaper{3 * sim.Microsecond}, 3 * sim.Microsecond, 3 * sim.Microsecond},
		{"huge-but-finite", fixedShaper{sim.Second}, sim.Second, sim.Second},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			eng := sim.NewEngine()
			n := New(eng)
			n.SetShaper(tc.shaper)
			var deliveredAt sim.Time
			delivered := false
			n.Bind(1, func(m *Message) { deliveredAt, delivered = eng.Now(), true })
			n.Send(0, 1, CatGOSData, 100, nil)
			eng.Run()
			if !delivered {
				t.Fatal("message never delivered")
			}
			if deliveredAt < tc.wantMin || deliveredAt > tc.wantMax {
				t.Fatalf("delivered at %v, want within [%v, %v]", deliveredAt, tc.wantMin, tc.wantMax)
			}
		})
	}
}

// scriptIcept replays a fixed verdict sequence in call order.
type scriptIcept struct {
	verdicts []Verdict
	calls    int
	primary  []Category
}

func (s *scriptIcept) Intercept(_ sim.Time, _, _ NodeID, primary Category, _ int) Verdict {
	s.primary = append(s.primary, primary)
	v := Verdict{}
	if s.calls < len(s.verdicts) {
		v = s.verdicts[s.calls]
	}
	s.calls++
	return v
}

// TestInterceptorVerdicts: drop loses the message (but keeps the wire
// accounting), duplicate delivers twice with the original first, and delay
// pushes delivery out; negative delay is ignored.
func TestInterceptorVerdicts(t *testing.T) {
	cases := []struct {
		name         string
		verdict      Verdict
		deliveries   int
		wantDrop     int64
		wantDup      int64
		minDelay     sim.Time
		extraAtLeast sim.Time
	}{
		{"pass", Verdict{}, 1, 0, 0, 0, 0},
		{"drop", Verdict{Drop: true}, 0, 1, 0, 0, 0},
		{"duplicate", Verdict{Duplicate: true}, 2, 0, 1, 0, 0},
		{"delay", Verdict{Delay: 2 * sim.Millisecond}, 1, 0, 0, 2 * sim.Millisecond, 2 * sim.Millisecond},
		{"negative-delay-ignored", Verdict{Delay: -sim.Second}, 1, 0, 0, 0, 0},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			eng := sim.NewEngine()
			n := New(eng)
			ic := &scriptIcept{verdicts: []Verdict{tc.verdict}}
			n.SetInterceptor(ic)
			var times []sim.Time
			n.Bind(1, func(m *Message) { times = append(times, eng.Now()) })
			n.Send(0, 1, CatOAL, 256, nil)
			base := n.TransferTime(256 + HeaderBytes)
			eng.Run()
			if len(times) != tc.deliveries {
				t.Fatalf("deliveries = %d, want %d", len(times), tc.deliveries)
			}
			st := n.Stats()
			if st.Dropped != tc.wantDrop || st.Duplicated != tc.wantDup {
				t.Fatalf("dropped/duplicated = %d/%d, want %d/%d", st.Dropped, st.Duplicated, tc.wantDrop, tc.wantDup)
			}
			if st.CatBytes(CatOAL) != 256 {
				t.Fatalf("wire accounting changed: %d bytes", st.CatBytes(CatOAL))
			}
			for i, at := range times {
				if at < base+tc.minDelay {
					t.Fatalf("delivery %d at %v, want >= %v", i, at, base+tc.minDelay)
				}
			}
			if tc.deliveries == 2 && times[1] <= times[0] {
				t.Fatalf("duplicate at %v not after original at %v", times[1], times[0])
			}
			if ic.calls != 1 {
				t.Fatalf("interceptor consulted %d times for one send", ic.calls)
			}
			if n.inFlight != 0 {
				t.Fatalf("in-flight = %d after drain", n.inFlight)
			}
		})
	}
}

// TestInterceptorPrimaryCategoryAndLocalBypass: the interceptor sees the
// first part's category (the protocol category of piggybacked messages) and
// is never consulted for local sends.
func TestInterceptorPrimaryCategoryAndLocalBypass(t *testing.T) {
	eng := sim.NewEngine()
	n := New(eng)
	ic := &scriptIcept{}
	n.SetInterceptor(ic)
	n.Bind(0, func(m *Message) {})
	n.Bind(1, func(m *Message) {})
	n.SendParts(0, 1, []Part{{Cat: CatControl, Bytes: 24}, {Cat: CatOAL, Bytes: 512}}, nil)
	n.Send(0, 1, CatOAL, 64, nil)
	n.Send(1, 1, CatOAL, 64, nil) // local: must bypass
	eng.Run()
	if ic.calls != 2 {
		t.Fatalf("interceptor consulted %d times, want 2 (local send bypasses)", ic.calls)
	}
	if ic.primary[0] != CatControl || ic.primary[1] != CatOAL {
		t.Fatalf("primary categories = %v, want [control oal]", ic.primary)
	}
}

// TestShaperComposesWithInterceptor: a shaper's delay and an interceptor's
// extra delay stack.
func TestShaperComposesWithInterceptor(t *testing.T) {
	eng := sim.NewEngine()
	n := New(eng)
	n.SetShaper(fixedShaper{1 * sim.Millisecond})
	n.SetInterceptor(&scriptIcept{verdicts: []Verdict{{Delay: 3 * sim.Millisecond}}})
	var at sim.Time
	n.Bind(1, func(m *Message) { at = eng.Now() })
	n.Send(0, 1, CatGOSData, 10, nil)
	eng.Run()
	if want := 4 * sim.Millisecond; at != want {
		t.Fatalf("delivered at %v, want %v", at, want)
	}
}

// dupThenDrop duplicates its first message and drops every later one.
type dupThenDrop struct{ calls int }

func (d *dupThenDrop) Intercept(sim.Time, NodeID, NodeID, Category, int) Verdict {
	d.calls++
	if d.calls == 1 {
		return Verdict{Duplicate: true}
	}
	return Verdict{Drop: true}
}

// TestRecycledMessagesAreSafe: a duplicated message hands the same payload
// and parts to both deliveries and stays off the free list until the second
// one, so a Send between them cannot reuse it; a dropped message goes back
// to the free list at once and leaves nothing in flight.
func TestRecycledMessagesAreSafe(t *testing.T) {
	eng := sim.NewEngine()
	n := New(eng)
	n.SetInterceptor(&dupThenDrop{})
	type seen struct {
		payload any
		bytes   int
		final   bool
	}
	var got []seen
	var first *Message
	n.Bind(0, func(m *Message) {})
	n.Bind(1, func(m *Message) {
		got = append(got, seen{m.Payload, m.TotalBytes(), m.Final()})
		if first == nil {
			first = m
			// Between the two deliveries: a new send must get a message
			// of its own (it is dropped, so the handler never sees it).
			n.Send(0, 1, CatGOSData, 999, "other")
			if len(n.free) != 1 || n.free[0] == m {
				t.Errorf("free list after the drop = %v, want only the dropped message", n.free)
			}
		} else if m != first {
			t.Error("duplicate delivered as a different message")
		}
	})
	n.SendParts(0, 1, []Part{{CatControl, 16}, {CatOAL, 100}}, "p")
	if n.inFlight != 2 {
		t.Fatalf("in flight after a duplicated send = %d, want 2", n.inFlight)
	}
	eng.Run()
	want := []seen{{"p", 116 + HeaderBytes, false}, {"p", 116 + HeaderBytes, true}}
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("deliveries = %+v, want %+v", got, want)
	}
	if n.inFlight != 0 {
		t.Fatalf("in flight after the run = %d, want 0", n.inFlight)
	}
	if st := n.Stats(); st.Dropped != 1 || st.Duplicated != 1 {
		t.Fatalf("dropped/duplicated = %d/%d, want 1/1", st.Dropped, st.Duplicated)
	}
	if len(n.free) != 2 || n.free[1] != first || n.free[1].Payload != nil {
		t.Fatal("the duplicated message did not return to the free list, payload dropped, after its final delivery")
	}
}
