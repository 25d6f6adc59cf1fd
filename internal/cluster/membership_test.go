package cluster

import (
	"testing"
	"time"
)

// fakeClock drives the failure detector deterministically.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }
func newFakeClock() *fakeClock               { return &fakeClock{t: time.Unix(1_000_000, 0)} }
func memWithClock(c *fakeClock) *Membership {
	return NewMembership(MembershipOptions{Now: c.now})
}

// TestSuspectThenEvict walks a shard through the full failure-detector
// lifecycle: alive -> suspect (out of the ring, still addressable) ->
// evicted (gone), with a heartbeat restoring a suspect along the way.
func TestSuspectThenEvict(t *testing.T) {
	clk := newFakeClock()
	m := memWithClock(clk)
	if err := m.Register("a", "http://a"); err != nil {
		t.Fatal(err)
	}
	if err := m.Register("b", "http://b"); err != nil {
		t.Fatal(err)
	}
	if m.AliveCount() != 2 {
		t.Fatalf("alive %d, want 2", m.AliveCount())
	}

	// b goes silent past suspectAfter.
	clk.advance(4 * time.Second)
	m.Heartbeat("a")
	suspected, evicted := m.Sweep()
	if len(suspected) != 1 || suspected[0] != "b" || len(evicted) != 0 {
		t.Fatalf("sweep suspected=%v evicted=%v", suspected, evicted)
	}
	if m.AliveCount() != 1 {
		t.Fatalf("alive %d after suspect, want 1", m.AliveCount())
	}
	// A suspect is out of the ring but still addressable: status polls
	// for jobs it owns must still route.
	if n, ok := m.Lookup("b"); !ok || n.State != StateSuspect {
		t.Fatalf("Lookup(b) = %+v, %v", n, ok)
	}
	for i := 0; i < 100; i++ {
		if o, _ := m.Ring().Owner(string(rune('0' + i))); o == "b" {
			t.Fatal("suspect shard still owns ring keys")
		}
	}

	// A heartbeat restores the suspect.
	if !m.Heartbeat("b") {
		t.Fatal("heartbeat from suspect rejected")
	}
	if m.AliveCount() != 2 {
		t.Fatalf("alive %d after restore, want 2", m.AliveCount())
	}

	// Silent for good: suspect, then evicted after evictAfter more.
	clk.advance(4 * time.Second)
	m.Heartbeat("a")
	if s, _ := m.Sweep(); len(s) != 1 || s[0] != "b" {
		t.Fatalf("re-suspect: %v", s)
	}
	clk.advance(16 * time.Second)
	m.Heartbeat("a")
	if _, ev := m.Sweep(); len(ev) != 1 || ev[0] != "b" {
		t.Fatalf("evict: %v", ev)
	}
	if _, ok := m.Lookup("b"); ok {
		t.Fatal("evicted shard still addressable")
	}
	// An evicted shard's heartbeat reports false -> it must re-register.
	if m.Heartbeat("b") {
		t.Fatal("heartbeat from evicted shard accepted")
	}
	if err := m.Register("b", "http://b"); err != nil {
		t.Fatal(err)
	}
	if m.AliveCount() != 2 {
		t.Fatalf("alive %d after re-register, want 2", m.AliveCount())
	}
}

func TestRegisterValidation(t *testing.T) {
	m := memWithClock(newFakeClock())
	for _, name := range []string{"", "has space", "has/slash", "has@at"} {
		if err := m.Register(name, "http://x"); err == nil {
			t.Fatalf("name %q accepted", name)
		}
	}
	if err := m.Register("ok", ""); err == nil {
		t.Fatal("empty URL accepted")
	}
	if err := m.Register("shard-1", "http://x"); err != nil {
		t.Fatal(err)
	}
}

// TestDeregisterRebalances: a graceful leave removes the node from the
// ring immediately and its keys land on survivors.
func TestDeregisterRebalances(t *testing.T) {
	m := memWithClock(newFakeClock())
	m.Register("a", "http://a")
	m.Register("b", "http://b")
	m.Deregister("a")
	if m.AliveCount() != 1 {
		t.Fatalf("alive %d, want 1", m.AliveCount())
	}
	if o, ok := m.Ring().Owner("any-key"); !ok || o != "b" {
		t.Fatalf("owner %q, %v after deregister", o, ok)
	}
}
