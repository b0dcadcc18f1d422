package server

import (
	"sync"
	"testing"
)

// keys returns the size of the cache's index: content keys plus aliases.
func (c *resultCache) keys() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.items)
}

func contentKey(i int) cacheKey { return cacheKey{fp: uint64(i) + 1, gen: 1} }

func aliasKey(i, j int) cacheKey {
	k := cacheKey{gen: 1}
	k.alias[0], k.alias[1], k.alias[2] = byte(i), byte(i>>8), byte(j)
	return k
}

// TestCacheCapacityCountsResponses: a cache of capacity N holds N
// responses however many aliases reach them, a slot keeps at most
// maxAliases aliases (the oldest gives way), and eviction and purge drop
// a slot together with every key that reaches it.
func TestCacheCapacityCountsResponses(t *testing.T) {
	const n = 8
	c := newResultCache(n)
	resps := make([]*SearchResponse, 3*n)
	for i := range resps {
		resps[i] = &SearchResponse{Candidates: i}
		c.put(contentKey(i), resps[i])
		for j := 0; j < maxAliases+3; j++ {
			c.link(contentKey(i), aliasKey(i, j), queryHeader{name: "q", insts: j})
		}
		if c.len() > n || c.keys() > n*(1+maxAliases) {
			t.Fatalf("after %d puts: %d responses under %d keys, capacity %d", i+1, c.len(), c.keys(), n)
		}
	}
	if c.len() != n || c.keys() != n*(1+maxAliases) {
		t.Fatalf("full cache holds %d responses under %d keys, want %d under %d", c.len(), c.keys(), n, n*(1+maxAliases))
	}
	for i := range resps {
		_, _, byContent := c.get(contentKey(i))
		live := 0
		for j := 0; j < maxAliases+3; j++ {
			got, hdr, ok := c.get(aliasKey(i, j))
			if !ok {
				continue
			}
			live++
			if got != resps[i] || hdr.insts != j {
				t.Errorf("alias %d/%d answers response %d under header %+v", i, j, got.Candidates, hdr)
			}
			if j < 3 {
				t.Errorf("alias %d/%d outlived %d younger ones", i, j, maxAliases)
			}
		}
		if want := i >= len(resps)-n; byContent != want || (live == maxAliases) != want || (live == 0) == want {
			t.Errorf("response %d: reachable by content %v and %d aliases, want resident %v", i, byContent, live, want)
		}
	}

	// A key that is not filed cannot be linked to, and an alias is filed once.
	c.link(contentKey(0), aliasKey(0, 0), queryHeader{})
	last := len(resps) - 1
	c.link(contentKey(last-1), aliasKey(last, maxAliases+2), queryHeader{})
	if got, _, _ := c.get(aliasKey(last, maxAliases+2)); got != resps[last] {
		t.Error("a filed alias was re-pointed at another slot")
	}
	if c.len() != n || c.keys() != n*(1+maxAliases) {
		t.Errorf("no-op links changed the cache: %d responses under %d keys", c.len(), c.keys())
	}

	c.purge()
	if c.len() != 0 || c.keys() != 0 {
		t.Errorf("purged cache holds %d responses under %d keys", c.len(), c.keys())
	}
}

// TestCacheGetByEitherKeyRefreshes: a hit through an alias keeps the slot
// (content key included) from being the next evicted, and vice versa.
func TestCacheGetByEitherKeyRefreshes(t *testing.T) {
	c := newResultCache(2)
	for i := 0; i < 2; i++ {
		c.put(contentKey(i), &SearchResponse{Candidates: i})
		c.link(contentKey(i), aliasKey(i, 0), queryHeader{})
	}
	c.get(aliasKey(0, 0)) // slot 0 is now the most recent
	c.put(contentKey(2), &SearchResponse{})
	if _, _, ok := c.get(contentKey(0)); !ok {
		t.Error("slot refreshed through its alias was evicted")
	}
	if _, _, ok := c.get(aliasKey(1, 0)); ok {
		t.Error("the stale slot's alias survived its eviction")
	}
	c.get(contentKey(0))
	c.put(contentKey(3), &SearchResponse{})
	if _, _, ok := c.get(aliasKey(0, 0)); !ok {
		t.Error("slot refreshed through its content key lost its alias")
	}
	if c.len() != 2 || c.keys() != 3 {
		t.Errorf("cache holds %d responses under %d keys, want 2 under 3", c.len(), c.keys())
	}
}

// TestCacheDisabled: capacity 0 stores and links nothing.
func TestCacheDisabled(t *testing.T) {
	c := newResultCache(0)
	c.put(contentKey(0), &SearchResponse{})
	c.link(contentKey(0), aliasKey(0, 0), queryHeader{})
	if _, _, ok := c.get(contentKey(0)); ok || c.len() != 0 || c.keys() != 0 {
		t.Error("disabled cache holds entries")
	}
}

// TestCacheConcurrent hammers get/put/link/purge from many goroutines;
// under -race it is the cache's data-race check, and the capacity
// invariants must hold whenever it is observed.
func TestCacheConcurrent(t *testing.T) {
	const n = 16
	c := newResultCache(n)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				id := (g*31 + i) % (3 * n)
				switch i % 5 {
				case 0:
					c.put(contentKey(id), &SearchResponse{Candidates: id})
				case 1:
					c.link(contentKey(id), aliasKey(id, g), queryHeader{insts: id})
				case 2:
					if resp, _, ok := c.get(contentKey(id)); ok && resp.Candidates != id {
						t.Errorf("content key %d answers response %d", id, resp.Candidates)
					}
				case 3:
					if resp, hdr, ok := c.get(aliasKey(id, g)); ok && (resp.Candidates != id || hdr.insts != id) {
						t.Errorf("alias of %d answers response %d under %+v", id, resp.Candidates, hdr)
					}
				case 4:
					if i%400 == 4 {
						c.purge()
					}
					if l, k := c.len(), c.keys(); l > n || k > n*(1+maxAliases) {
						t.Errorf("%d responses under %d keys exceed capacity %d", l, k, n)
					}
				}
			}
		}(g)
	}
	wg.Wait()
}
