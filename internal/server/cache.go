package server

import (
	"container/list"
	"crypto/sha256"
	"sync"

	"repro/internal/index"
)

// cacheKey identifies one cacheable search: the snapshot generation it
// ran against, every option that changes the answer, and the query —
// either by content (fp, the fingerprint of the resolved function) or by
// request alias (the SHA-256 of the query designator as received, which
// is known before anything is resolved). Exactly one of fp and alias is
// set. A reload bumps the generation, so stale results can never be
// served (purge on swap just frees the memory sooner).
type cacheKey struct {
	fp         uint64
	alias      [sha256.Size]byte
	gen        uint64
	k          int
	limit      int
	minScore   float64
	candidates int                 // effective prefilter cap; 0 = exhaustive
	mode       index.PrefilterMode // candidate generator: scan and lsh answers never mix
	degraded   bool                // prefilter-only degraded answer: separate keyspace
}

// queryHeader is the part of a response that names the query function
// rather than its content: two requests may share a cached answer and
// still differ here.
type queryHeader struct {
	name          string
	blocks, insts int
}

// maxAliases bounds the request aliases one slot keeps; the oldest gives
// way.
const maxAliases = 4

// resultCache is a mutex-guarded LRU of search responses: alias -> slot
// <- content key. A slot is one response, filed under its content key
// and reachable by up to maxAliases request aliases as well; capacity
// counts slots, and a slot leaves with every key that reaches it. The
// cached *SearchResponse and its Hits slice are shared between callers
// and must be treated as read-only; the front end copies the struct
// header before stamping per-request fields.
type resultCache struct {
	mu    sync.Mutex
	max   int
	order *list.List // front = most recently used; values are *cacheSlot
	items map[cacheKey]cacheRef
}

type cacheSlot struct {
	keys []cacheKey // the content key, then the aliases oldest first
	resp *SearchResponse
}

type cacheRef struct {
	el  *list.Element
	hdr queryHeader // of the request that filed an alias; unused under a content key
}

// newResultCache returns a cache holding at most max responses; max <= 0
// disables caching (every get misses, puts are dropped).
func newResultCache(max int) *resultCache {
	return &resultCache{
		max:   max,
		order: list.New(),
		items: make(map[cacheKey]cacheRef),
	}
}

// get returns the response reachable by key and the header filed with
// the key, refreshing the slot's recency.
func (c *resultCache) get(key cacheKey) (*SearchResponse, queryHeader, bool) {
	if c.max <= 0 {
		return nil, queryHeader{}, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	ref, ok := c.items[key]
	if !ok {
		return nil, queryHeader{}, false
	}
	c.order.MoveToFront(ref.el)
	return ref.el.Value.(*cacheSlot).resp, ref.hdr, true
}

// put stores resp under its content key, evicting the least recently
// used slot when full.
func (c *resultCache) put(key cacheKey, resp *SearchResponse) {
	if c.max <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if ref, ok := c.items[key]; ok {
		ref.el.Value.(*cacheSlot).resp = resp
		c.order.MoveToFront(ref.el)
		return
	}
	c.items[key] = cacheRef{el: c.order.PushFront(&cacheSlot{keys: []cacheKey{key}, resp: resp})}
	for c.order.Len() > c.max {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		for _, k := range oldest.Value.(*cacheSlot).keys {
			delete(c.items, k)
		}
	}
}

// link makes the slot filed under key reachable by alias too, answering
// under hdr. A slot already gone, or an alias already filed, is left alone.
func (c *resultCache) link(key, alias cacheKey, hdr queryHeader) {
	if c.max <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	ref, ok := c.items[key]
	if _, dup := c.items[alias]; !ok || dup {
		return
	}
	slot := ref.el.Value.(*cacheSlot)
	if len(slot.keys) > maxAliases {
		delete(c.items, slot.keys[1])
		slot.keys = append(slot.keys[:1], slot.keys[2:]...)
	}
	slot.keys = append(slot.keys, alias)
	c.items[alias] = cacheRef{el: ref.el, hdr: hdr}
}

// purge drops every entry (used on snapshot swap).
func (c *resultCache) purge() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.order.Init()
	c.items = make(map[cacheKey]cacheRef)
}

// len returns the number of cached responses.
func (c *resultCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}
