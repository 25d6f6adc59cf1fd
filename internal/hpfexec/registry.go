// The Prepared-plan registry: a content-addressed, byte-budgeted LRU
// cache of Prepared handles. Batching (batch.go) amortizes setup only
// within one batch window; the registry carries it across windows —
// repeat traffic against a hot matrix skips plan validation, the
// partitioner, the CSC conversion and (via Prepared's warm operator
// cache) the inspector ghost exchange entirely. The serving tier keys
// entries by matrix content hash plus execution shape, so in cluster
// mode the router's content-hash sharding lands a matrix back on the
// node whose registry already holds its plan.
package hpfexec

import (
	"container/list"
	"sync"
)

// DefaultRegistryBudget bounds the registry when the caller passes no
// budget: 256 MiB of estimated plan bytes.
const DefaultRegistryBudget = 256 << 20

// Registry is the plan cache. All methods are safe for concurrent use;
// the Prepared inside an entry is not, so callers run solves under the
// entry's lock (Entry.Lock/Unlock).
type Registry struct {
	mu     sync.Mutex
	budget int64
	bytes  int64
	lru    *list.List // front = most recently used, values are *Entry
	byKey  map[string]*Entry

	hits      uint64
	misses    uint64
	evictions uint64
}

// Entry is one cached plan. The entry-level mutex serializes batch
// runs on the entry's Prepared (which owns its machine and cached
// operators); eviction never blocks on it — an evicted entry simply
// leaves the index while its current user finishes.
type Entry struct {
	key  string
	pr   *Prepared
	size int64
	elem *list.Element

	mu sync.Mutex
}

// Lock acquires the entry for a batch run.
func (e *Entry) Lock() { e.mu.Lock() }

// Unlock releases the entry.
func (e *Entry) Unlock() { e.mu.Unlock() }

// Prepared returns the cached handle; call under Lock.
func (e *Entry) Prepared() *Prepared { return e.pr }

// NewRegistry builds a registry with the given byte budget
// (<=0 selects DefaultRegistryBudget).
func NewRegistry(budgetBytes int64) *Registry {
	if budgetBytes <= 0 {
		budgetBytes = DefaultRegistryBudget
	}
	return &Registry{
		budget: budgetBytes,
		lru:    list.New(),
		byKey:  map[string]*Entry{},
	}
}

// Get looks up a cached plan, counting a hit or miss and refreshing
// recency on hit.
func (r *Registry) Get(key string) (*Entry, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.byKey[key]
	if !ok {
		r.misses++
		return nil, false
	}
	r.hits++
	r.lru.MoveToFront(e.elem)
	return e, true
}

// Put inserts a freshly prepared plan, evicting least-recently-used
// entries until the budget holds. A plan larger than the whole budget
// is not cached (returns nil, false) — the caller runs it uncached.
// If the key is already present (two workers missed concurrently and
// both prepared), the existing entry wins and the new plan is dropped.
func (r *Registry) Put(key string, pr *Prepared) (*Entry, bool) {
	size := pr.MemoryBytes()
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.byKey[key]; ok {
		r.lru.MoveToFront(e.elem)
		return e, true
	}
	if size > r.budget {
		return nil, false
	}
	for r.bytes+size > r.budget && r.lru.Len() > 0 {
		back := r.lru.Back()
		victim := back.Value.(*Entry)
		r.lru.Remove(back)
		delete(r.byKey, victim.key)
		r.bytes -= victim.size
		r.evictions++
	}
	e := &Entry{key: key, pr: pr, size: size}
	e.elem = r.lru.PushFront(e)
	r.byKey[key] = e
	r.bytes += size
	return e, true
}

// RegistryStats is a point-in-time counter snapshot for /metrics.
type RegistryStats struct {
	Hits      uint64
	Misses    uint64
	Evictions uint64
	Entries   int
	Bytes     int64
	Budget    int64
}

// Stats snapshots the registry counters.
func (r *Registry) Stats() RegistryStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return RegistryStats{
		Hits:      r.hits,
		Misses:    r.misses,
		Evictions: r.evictions,
		Entries:   r.lru.Len(),
		Bytes:     r.bytes,
		Budget:    r.budget,
	}
}
