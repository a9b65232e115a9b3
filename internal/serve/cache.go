package serve

import (
	"container/list"
	"strings"
	"sync"
)

// lru is a fixed-capacity least-recently-used prediction cache. Keys are
// sha256 sums over the model fingerprint and the query (a source's token
// stream or a feature vector; see cacheKey), so a reload naturally misses.
// An entry holds the predicted factor and, for a source, its loop's name,
// which a hit answers without parsing.
type lru struct {
	mu  sync.Mutex
	max int
	ll  *list.List // front = most recent
	m   map[[32]byte]*list.Element
}

type lruEntry struct {
	key    [32]byte
	factor int
	loop   string
}

// newLRU returns a cache holding up to max entries; max <= 0 disables
// caching (every get misses, every put is dropped).
func newLRU(max int) *lru {
	return &lru{max: max, ll: list.New(), m: make(map[[32]byte]*list.Element)}
}

// enabled reports whether the cache keeps anything, so that callers of a
// disabled cache can skip building keys.
func (c *lru) enabled() bool { return c.max > 0 }

func (c *lru) get(key [32]byte) (factor int, loop string, ok bool) {
	if c.max <= 0 {
		return 0, "", false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.m[key]
	if !ok {
		return 0, "", false
	}
	c.ll.MoveToFront(el)
	e := el.Value.(*lruEntry)
	return e.factor, e.loop, true
}

// put records the factor for key, and the loop name a hit answers with.
// A new entry keeps its own copy of the name: the caller's is a substring
// of a request body, which the entry would otherwise pin.
func (c *lru) put(key [32]byte, factor int, loop string) {
	if c.max <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.m[key]; ok {
		el.Value.(*lruEntry).factor = factor
		c.ll.MoveToFront(el)
		return
	}
	c.m[key] = c.ll.PushFront(&lruEntry{key: key, factor: factor, loop: strings.Clone(loop)})
	if c.ll.Len() > c.max {
		last := c.ll.Back()
		c.ll.Remove(last)
		delete(c.m, last.Value.(*lruEntry).key)
	}
}
