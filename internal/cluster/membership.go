// Node membership: the router's view of which shards exist and which
// are healthy. Shards register, heartbeat on an interval and
// deregister on shutdown; a shard that misses heartbeats is first
// *suspected* (removed from the routing ring so new traffic avoids it,
// but still addressable for status polls on jobs it already owns) and
// then *evicted* after a longer silence. A heartbeat from a suspect
// restores it — transient stalls do not churn the ring.
package cluster

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// NodeState is a member's health.
type NodeState string

const (
	// StateAlive nodes are in the routing ring.
	StateAlive NodeState = "alive"
	// StateSuspect nodes missed heartbeats: out of the ring, still
	// addressable for job-status proxying until evicted.
	StateSuspect NodeState = "suspect"
)

// Node is one registered shard.
type Node struct {
	Name     string    `json:"name"`
	URL      string    `json:"url"`
	State    NodeState `json:"state"`
	LastBeat time.Time `json:"last_beat"`
}

// The failure detector's windows: a node whose last heartbeat is older
// than suspectAfter turns suspect, and a suspect silent past evictAfter
// is removed entirely.
const (
	suspectAfter = 3 * time.Second
	evictAfter   = 15 * time.Second
)

// MembershipOptions tune failure detection.
type MembershipOptions struct {
	// Now overrides the clock for deterministic tests.
	Now func() time.Time
}

func (o MembershipOptions) withDefaults() MembershipOptions {
	if o.Now == nil {
		o.Now = time.Now
	}
	return o
}

// Membership tracks shards and owns the current ring snapshot.
type Membership struct {
	opts MembershipOptions

	mu    sync.Mutex
	nodes map[string]*Node
	ring  *Ring
}

// NewMembership builds an empty membership.
func NewMembership(opts MembershipOptions) *Membership {
	m := &Membership{
		opts:  opts.withDefaults(),
		nodes: map[string]*Node{},
	}
	m.ring = NewRing(nil, DefaultVNodes)
	return m
}

// rebuild recomputes the ring from alive members; callers hold mu.
func (m *Membership) rebuild() {
	alive := make([]string, 0, len(m.nodes))
	for name, n := range m.nodes {
		if n.State == StateAlive {
			alive = append(alive, name)
		}
	}
	m.ring = NewRing(alive, DefaultVNodes)
}

// Register adds (or refreshes) a shard. Re-registering an evicted or
// suspect shard restores it to the ring.
func (m *Membership) Register(name, url string) error {
	if name == "" || url == "" {
		return fmt.Errorf("cluster: register needs name and url")
	}
	for _, c := range name {
		if c == '@' || c == '/' || c == ' ' {
			return fmt.Errorf("cluster: node name %q may not contain '@', '/' or spaces", name)
		}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.nodes[name] = &Node{Name: name, URL: url, State: StateAlive, LastBeat: m.opts.Now()}
	m.rebuild()
	return nil
}

// Heartbeat refreshes a shard's liveness; unknown names report false
// so the shard knows to re-register.
func (m *Membership) Heartbeat(name string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	n, ok := m.nodes[name]
	if !ok {
		return false
	}
	n.LastBeat = m.opts.Now()
	if n.State != StateAlive {
		n.State = StateAlive
		m.rebuild()
	}
	return true
}

// Deregister removes a shard immediately (graceful shutdown).
func (m *Membership) Deregister(name string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.nodes[name]; ok {
		delete(m.nodes, name)
		m.rebuild()
	}
}

// Sweep applies the failure detector: alive nodes silent past
// suspectAfter turn suspect (and leave the ring); suspects silent past
// evictAfter are removed. Returns what changed, for logging.
func (m *Membership) Sweep() (suspected, evicted []string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	now := m.opts.Now()
	changed := false
	for name, n := range m.nodes {
		silent := now.Sub(n.LastBeat)
		switch {
		case n.State == StateAlive && silent > suspectAfter:
			n.State = StateSuspect
			suspected = append(suspected, name)
			changed = true
		case n.State == StateSuspect && silent > evictAfter:
			delete(m.nodes, name)
			evicted = append(evicted, name)
			changed = true
		}
	}
	if changed {
		m.rebuild()
	}
	sort.Strings(suspected)
	sort.Strings(evicted)
	return suspected, evicted
}

// Ring returns the current ring snapshot (alive members only).
func (m *Membership) Ring() *Ring {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.ring
}

// Lookup resolves a node by name, whatever its state — status polls
// for jobs a suspect shard owns must still route.
func (m *Membership) Lookup(name string) (Node, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	n, ok := m.nodes[name]
	if !ok {
		return Node{}, false
	}
	return *n, true
}

// Nodes lists all members sorted by name.
func (m *Membership) Nodes() []Node {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]Node, 0, len(m.nodes))
	for _, n := range m.nodes {
		out = append(out, *n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// AliveCount returns how many members are in the ring.
func (m *Membership) AliveCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.ring.Len()
}
