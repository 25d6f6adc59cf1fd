// Package cluster shards the solver service across nodes: a router
// tier consistent-hashes jobs by placement key (a digest of the
// generator spec, or of an upload's text) onto hpfserve worker shards,
// so repeat traffic against a hot matrix always lands
// on the shard whose Prepared-plan registry already holds its plan —
// the cross-node extension of the content-addressed caching in
// internal/serve. Membership is a small HTTP state API (register,
// heartbeat, deregister) with suspect-then-evict failure handling, and
// the router mirrors the hpfserve job API (submit proxying with
// backpressure pass-through, shard-encoded job IDs, cluster-wide
// /metrics rollup, /healthz and /readyz) and lists its members at
// GET /cluster/nodes.
package cluster

import (
	"crypto/sha256"
	"encoding/binary"
	"sort"
	"strconv"
)

// DefaultVNodes is the virtual-node count per shard. 64 points per
// node keeps the max/min key-share ratio tight (≲1.3 for small
// clusters) while the ring stays tiny.
const DefaultVNodes = 64

// Ring is a consistent-hash ring with virtual nodes. It is a value
// snapshot — membership builds a fresh ring on every change, so reads
// need no locking and rebalancing is deterministic: the ring depends
// only on the member set, never on join order.
type Ring struct {
	points []ringPoint // sorted by hash
	nodes  []string    // sorted member names
}

type ringPoint struct {
	h    uint64
	node string
}

// ringHash places a key on the ring: the first 8 bytes of SHA-256,
// matching the digests the keys are made of, so placement is stable
// across processes and platforms.
func ringHash(key string) uint64 {
	sum := sha256.Sum256([]byte(key))
	return binary.BigEndian.Uint64(sum[:8])
}

// NewRing builds a ring over the given node names with vnodes virtual
// points each (<=0 selects DefaultVNodes). Duplicate names collapse.
func NewRing(nodes []string, vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	uniq := map[string]bool{}
	for _, n := range nodes {
		uniq[n] = true
	}
	r := &Ring{
		points: make([]ringPoint, 0, len(uniq)*vnodes),
		nodes:  make([]string, 0, len(uniq)),
	}
	for n := range uniq {
		r.nodes = append(r.nodes, n)
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{
				h:    ringHash(n + "#" + strconv.Itoa(v)),
				node: n,
			})
		}
	}
	sort.Strings(r.nodes)
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].h != r.points[j].h {
			return r.points[i].h < r.points[j].h
		}
		// A 64-bit collision between vnode labels is astronomically
		// unlikely; break it by name so the ring is still deterministic.
		return r.points[i].node < r.points[j].node
	})
	return r
}

// Owner maps a key (a job's placement key) to the node owning it:
// the first virtual point clockwise from the key's position. Returns
// false when the ring is empty.
func (r *Ring) Owner(key string) (string, bool) {
	if len(r.points) == 0 {
		return "", false
	}
	h := ringHash(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].h >= h })
	if i == len(r.points) {
		i = 0 // wrap: the ring is circular
	}
	return r.points[i].node, true
}

// Len returns the member count.
func (r *Ring) Len() int { return len(r.nodes) }
