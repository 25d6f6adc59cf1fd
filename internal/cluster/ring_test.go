package cluster

import (
	"fmt"
	"testing"
)

// TestRingDeterministicAcrossJoinOrder: placement depends only on the
// member set, never on the order nodes joined.
func TestRingDeterministicAcrossJoinOrder(t *testing.T) {
	a := NewRing([]string{"n1", "n2", "n3"}, 64)
	b := NewRing([]string{"n3", "n1", "n2"}, 64)
	for i := 0; i < 500; i++ {
		key := fmt.Sprintf("key-%d", i)
		oa, _ := a.Owner(key)
		ob, _ := b.Owner(key)
		if oa != ob {
			t.Fatalf("key %q: owner %s vs %s depending on join order", key, oa, ob)
		}
	}
}

// TestRingBalance: virtual nodes must spread keys across all members
// without any pathological imbalance.
func TestRingBalance(t *testing.T) {
	nodes := []string{"a", "b", "c", "d"}
	r := NewRing(nodes, DefaultVNodes)
	counts := map[string]int{}
	const keys = 4000
	for i := 0; i < keys; i++ {
		o, ok := r.Owner(fmt.Sprintf("matrix-%d", i))
		if !ok {
			t.Fatal("non-empty ring reported empty")
		}
		counts[o]++
	}
	min, max := keys, 0
	for _, n := range nodes {
		c := counts[n]
		if c == 0 {
			t.Fatalf("node %s owns zero keys: %v", n, counts)
		}
		if c < min {
			min = c
		}
		if c > max {
			max = c
		}
	}
	if float64(max)/float64(min) > 3 {
		t.Fatalf("imbalanced ring: %v (max/min > 3)", counts)
	}
}

// TestRingRebalanceOnlyToNewNode: adding a member may only move keys
// onto the new member — consistent hashing's defining property.
func TestRingRebalanceOnlyToNewNode(t *testing.T) {
	before := NewRing([]string{"a", "b", "c"}, 64)
	after := NewRing([]string{"a", "b", "c", "d"}, 64)
	moved := 0
	const keys = 2000
	for i := 0; i < keys; i++ {
		key := fmt.Sprintf("key-%d", i)
		ob, _ := before.Owner(key)
		oa, _ := after.Owner(key)
		if ob != oa {
			moved++
			if oa != "d" {
				t.Fatalf("key %q moved %s -> %s, not to the new node", key, ob, oa)
			}
		}
	}
	if moved == 0 {
		t.Fatal("new node received no keys")
	}
	// Expect ~keys/4 to move; flag gross deviation.
	if moved > keys/2 {
		t.Fatalf("%d/%d keys moved on a single join", moved, keys)
	}
}

func TestRingEmpty(t *testing.T) {
	r := NewRing(nil, 0)
	if _, ok := r.Owner("anything"); ok {
		t.Fatal("empty ring returned an owner")
	}
	if r.Len() != 0 {
		t.Fatalf("empty ring Len %d", r.Len())
	}
}

// TestRingDuplicateNames: duplicates collapse rather than doubling a
// node's share.
func TestRingDuplicateNames(t *testing.T) {
	r := NewRing([]string{"a", "a", "b"}, 8)
	if r.Len() != 2 {
		t.Fatalf("Len %d, want 2", r.Len())
	}
}
