// Package lru is the one bounded least-recently-used map the serving
// tier needs in two places: serve's custom-platform result namespace
// and cluster's custom-platform registry. Each caller already serialises access under
// its own mutex, so a Cache is not safe for concurrent use.
package lru

import "container/list"

// Cache maps keys to values, dropping the least recently used entry
// once more than its capacity are held. A capacity below 1 holds
// nothing.
type Cache[K comparable, V any] struct {
	capacity int
	order    *list.List // front = most recently used; values are *entry[K, V]
	items    map[K]*list.Element
}

type entry[K comparable, V any] struct {
	key K
	val V
}

// New returns an empty cache holding at most capacity entries.
func New[K comparable, V any](capacity int) *Cache[K, V] {
	return &Cache[K, V]{capacity: capacity, order: list.New(), items: map[K]*list.Element{}}
}

// Get returns the value for k and marks it most recently used.
func (c *Cache[K, V]) Get(k K) (V, bool) {
	el := c.items[k]
	if el != nil {
		c.order.MoveToFront(el)
	}
	return value[K, V](el)
}

// Peek returns the value for k without touching its recency — for
// listings, which must not reorder what they list.
func (c *Cache[K, V]) Peek(k K) (V, bool) { return value[K, V](c.items[k]) }

func value[K comparable, V any](el *list.Element) (v V, ok bool) {
	if el == nil {
		return v, false
	}
	return el.Value.(*entry[K, V]).val, true
}

// Put stores v under k as the most recently used entry. Storing an
// existing key replaces its value and evicts nothing; a new key past
// capacity evicts the least recently used entry, whose key is returned
// with evicted true.
func (c *Cache[K, V]) Put(k K, v V) (victim K, evicted bool) {
	if el, ok := c.items[k]; ok {
		el.Value.(*entry[K, V]).val = v
		c.order.MoveToFront(el)
		return victim, false
	}
	c.items[k] = c.order.PushFront(&entry[K, V]{k, v})
	if c.order.Len() <= c.capacity {
		return victim, false
	}
	return c.evictOldest(), true
}

// Keys returns every key, least recently used first.
func (c *Cache[K, V]) Keys() []K {
	keys := make([]K, 0, c.order.Len())
	for el := c.order.Back(); el != nil; el = el.Prev() {
		keys = append(keys, el.Value.(*entry[K, V]).key)
	}
	return keys
}

// Len returns the number of entries held.
func (c *Cache[K, V]) Len() int { return c.order.Len() }

func (c *Cache[K, V]) evictOldest() K {
	k := c.order.Remove(c.order.Back()).(*entry[K, V]).key
	delete(c.items, k)
	return k
}
