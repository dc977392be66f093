// Package immap implements a persistent (immutable, structurally shared)
// hash map from string keys to arbitrary values — the copy-on-write
// substrate of the engine's MVCC read path.
//
// A *Map is immutable: every update derives a NEW map that shares all
// untouched structure with the original, and the original stays valid
// forever. A published *Map can therefore be read from any number of
// goroutines without synchronization while writers keep deriving new
// versions from it: exactly the "readers pin a version, writers publish the
// next one" discipline the engine needs. Old versions are reclaimed by the
// garbage collector as soon as the last reader drops its pointer.
//
// Updates go through a Builder (Map.Edit), the "transient" of a persistent
// trie. Every node records the edit id of the Builder that allocated it. A
// Builder copies a node it did not allocate the first time it touches it —
// so a published map is never written — and from then on rewrites its own
// copy in place. A bulk load of n keys therefore allocates each trie node
// about once instead of copying a root-to-leaf path per key. Builder.Map
// freezes the result: it draws a fresh edit id, so the nodes the returned
// *Map shares are copied again by any later edit. Map.Set and Map.Delete are
// one-update builders.
//
// The structure is a hash array mapped trie (HAMT): a 32-ary tree indexed
// 5 hash bits per level, each node's entry and child arrays sized exactly to
// their contents. Lookups are O(log₃₂ n) with small constants. Keys that
// exhaust all 64 hash bits (a full-hash collision) fall into a linear
// collision bucket at maximum depth.
package immap

import (
	"math/bits"
	"sync/atomic"
)

const (
	fanLog = 5           // bits consumed per level
	fan    = 1 << fanLog // slots per node
	slotMa = fan - 1     // slot index mask
	// maxShift is the last shift at which 5 fresh hash bits remain; past it
	// the trie stops splitting and chains collisions linearly.
	maxShift = 60
)

// Map is an immutable hash map. The zero value is NOT usable; obtain an
// empty map with New. All methods are safe for concurrent use by any number
// of readers; updates return new maps and never mutate the receiver.
type Map[V any] struct {
	root *node[V]
	size int
}

// Builder is a mutable handle on a map under construction. It edits in
// place the nodes it allocated itself and copies any other node on first
// touch, so the map it started from — and every map it has frozen with
// Map — stays unchanged. A Builder is for one goroutine at a time.
type Builder[V any] struct {
	root  *node[V]
	size  int
	owner uint64
}

// entry is one key/value pair with its cached hash.
type entry[V any] struct {
	hash uint64
	key  string
	val  V
}

// node is one trie level: a bitmap-compressed array of entries (leaves) and
// child nodes. A slot is either empty, an entry, or a child — never both.
// At shift > maxShift a node degenerates into a collision bucket: all
// entries share the full 64-bit hash and live in `entries` unordered.
type node[V any] struct {
	owner    uint64 // edit id of the Builder that allocated it; 0 = New's root
	entryMap uint32 // bitmap of slots holding an entry
	nodeMap  uint32 // bitmap of slots holding a child node
	entries  []entry[V]
	children []*node[V]
}

// editIDs issues Builder edit ids. It starts at 0 and ids are drawn with
// Add, so no Builder ever owns New's root.
var editIDs atomic.Uint64

// hashString is FNV-1a 64. Indirect so tests can force collisions.
var hashString = func(s string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return h
}

// New returns an empty map.
func New[V any]() *Map[V] {
	return &Map[V]{root: &node[V]{}}
}

// Len returns the number of keys.
func (m *Map[V]) Len() int { return m.size }

// Get returns the value stored under key.
func (m *Map[V]) Get(key string) (V, bool) { return get(m.root, key) }

// Set returns a map with key bound to val (replacing any existing binding).
func (m *Map[V]) Set(key string, val V) *Map[V] {
	b := Builder[V]{root: m.root, size: m.size, owner: editIDs.Add(1)}
	b.Set(key, val)
	return &Map[V]{root: b.root, size: b.size}
}

// Delete returns a map without key (the receiver if key is absent).
func (m *Map[V]) Delete(key string) *Map[V] {
	b := Builder[V]{root: m.root, size: m.size, owner: editIDs.Add(1)}
	if !b.Delete(key) {
		return m
	}
	return &Map[V]{root: b.root, size: b.size}
}

// Range calls fn for every key/value pair until fn returns false. Iteration
// order is unspecified but deterministic for a given map value.
func (m *Map[V]) Range(fn func(key string, val V) bool) {
	walk(m.root, fn)
}

// Edit returns a Builder starting from m's contents. m itself is never
// modified.
func (m *Map[V]) Edit() *Builder[V] {
	return &Builder[V]{root: m.root, size: m.size, owner: editIDs.Add(1)}
}

// Map freezes the builder's current contents as an immutable map. The
// builder stays usable: it takes a fresh edit id, so its next updates copy
// the nodes the returned map shares instead of writing them.
func (b *Builder[V]) Map() *Map[V] {
	b.owner = editIDs.Add(1)
	return &Map[V]{root: b.root, size: b.size}
}

// Len returns the number of keys.
func (b *Builder[V]) Len() int { return b.size }

// Get returns the value stored under key.
func (b *Builder[V]) Get(key string) (V, bool) { return get(b.root, key) }

// Set binds key to val (replacing any existing binding).
func (b *Builder[V]) Set(key string, val V) {
	var added bool
	b.root, added = b.set(b.root, 0, entry[V]{hash: hashString(key), key: key, val: val})
	if added {
		b.size++
	}
}

// Delete removes key and reports whether it was present.
func (b *Builder[V]) Delete(key string) bool {
	root, removed := b.del(b.root, 0, hashString(key), key)
	if removed {
		b.root = root
		b.size--
	}
	return removed
}

// get looks key up below root.
func get[V any](n *node[V], key string) (V, bool) {
	h := hashString(key)
	shift := uint(0)
	for {
		if shift > maxShift {
			// Collision bucket: linear search.
			for i := range n.entries {
				if n.entries[i].key == key {
					return n.entries[i].val, true
				}
			}
			var zero V
			return zero, false
		}
		bit := uint32(1) << ((h >> shift) & slotMa)
		if n.entryMap&bit != 0 {
			e := &n.entries[index(n.entryMap, bit)]
			if e.key == key {
				return e.val, true
			}
			var zero V
			return zero, false
		}
		if n.nodeMap&bit == 0 {
			var zero V
			return zero, false
		}
		n = n.children[index(n.nodeMap, bit)]
		shift += fanLog
	}
}

// index converts a slot bit into a compressed-array index: the number of
// set bits below it.
func index(bitmap, bit uint32) int {
	return bits.OnesCount32(bitmap & (bit - 1))
}

// The arrays own copies out of a node the builder did not allocate. A
// caller that replaces an array with a fresh one right away leaves it out.
const (
	keepEntries = 1 << iota
	keepChildren
	keepBoth = keepEntries | keepChildren
)

// own returns a node b may rewrite in place holding n's contents: n itself
// when b allocated it, otherwise a copy stamped with b's edit id. The copy's
// kept arrays are fresh, so no write through them reaches n; the others are
// nil until the caller replaces them.
func (b *Builder[V]) own(n *node[V], keep int) *node[V] {
	if n.owner == b.owner {
		return n
	}
	c := &node[V]{owner: b.owner, entryMap: n.entryMap, nodeMap: n.nodeMap}
	if keep&keepEntries != 0 {
		c.entries = clone(n.entries)
	}
	if keep&keepChildren != 0 {
		c.children = clone(n.children)
	}
	return c
}

// clone returns an exact copy of s (nil when s is empty).
func clone[T any](s []T) []T {
	if len(s) == 0 {
		return nil
	}
	out := make([]T, len(s))
	copy(out, s)
	return out
}

// insertAt returns a fresh array of exactly len(s)+1 elements holding s with
// v inserted at i. s is only read, so it may belong to a published node.
func insertAt[T any](s []T, i int, v T) []T {
	out := make([]T, len(s)+1)
	copy(out, s[:i])
	out[i] = v
	copy(out[i+1:], s[i:])
	return out
}

// removeAt returns a fresh array of exactly len(s)-1 elements holding s
// without element i (nil when that leaves it empty).
func removeAt[T any](s []T, i int) []T {
	if len(s) == 1 {
		return nil
	}
	out := make([]T, len(s)-1)
	copy(out, s[:i])
	copy(out[i:], s[i+1:])
	return out
}

// set inserts e below n at the given shift, returning the node to link in
// n's place (n itself when b owned it) and whether the key is new (false =
// replaced).
func (b *Builder[V]) set(n *node[V], shift uint, e entry[V]) (*node[V], bool) {
	if shift > maxShift {
		for i := range n.entries {
			if n.entries[i].key == e.key {
				c := b.own(n, keepBoth)
				c.entries[i] = e
				return c, false
			}
		}
		c := b.own(n, keepChildren)
		c.entries = insertAt(n.entries, len(n.entries), e)
		return c, true
	}
	bit := uint32(1) << ((e.hash >> shift) & slotMa)
	switch {
	case n.entryMap&bit != 0:
		i := index(n.entryMap, bit)
		have := n.entries[i]
		if have.key == e.key {
			c := b.own(n, keepBoth)
			c.entries[i] = e
			return c, false
		}
		// Two distinct keys in one slot: push both one level down.
		child := b.merge(have, e, shift+fanLog)
		c := b.own(n, 0)
		c.entryMap &^= bit
		c.nodeMap |= bit
		c.entries = removeAt(n.entries, i)
		c.children = insertAt(n.children, index(c.nodeMap, bit), child)
		return c, true
	case n.nodeMap&bit != 0:
		i := index(n.nodeMap, bit)
		child, added := b.set(n.children[i], shift+fanLog, e)
		c := b.own(n, keepBoth)
		c.children[i] = child
		return c, added
	default:
		c := b.own(n, keepChildren)
		c.entryMap |= bit
		c.entries = insertAt(n.entries, index(c.entryMap, bit), e)
		return c, true
	}
}

// merge builds the minimal subtree holding two entries that collided in one
// slot at the parent level. The new nodes belong to b.
func (b *Builder[V]) merge(x, y entry[V], shift uint) *node[V] {
	if shift > maxShift {
		return &node[V]{owner: b.owner, entries: []entry[V]{x, y}}
	}
	xbit := uint32(1) << ((x.hash >> shift) & slotMa)
	ybit := uint32(1) << ((y.hash >> shift) & slotMa)
	if xbit == ybit {
		return &node[V]{owner: b.owner, nodeMap: xbit, children: []*node[V]{b.merge(x, y, shift+fanLog)}}
	}
	n := &node[V]{owner: b.owner, entryMap: xbit | ybit}
	if index(n.entryMap, xbit) == 0 {
		n.entries = []entry[V]{x, y}
	} else {
		n.entries = []entry[V]{y, x}
	}
	return n
}

// del removes key below n, returning the node to link in n's place and
// whether the key was present. The result may be sparser than n but is
// never compacted upward: stray empty nodes cost a pointer hop and vanish
// with the version itself, which keeps deletion single-pass.
func (b *Builder[V]) del(n *node[V], shift uint, h uint64, key string) (*node[V], bool) {
	if shift > maxShift {
		for i := range n.entries {
			if n.entries[i].key == key {
				c := b.own(n, keepChildren)
				c.entries = removeAt(n.entries, i)
				return c, true
			}
		}
		return n, false
	}
	bit := uint32(1) << ((h >> shift) & slotMa)
	if n.entryMap&bit != 0 {
		i := index(n.entryMap, bit)
		if n.entries[i].key != key {
			return n, false
		}
		c := b.own(n, keepChildren)
		c.entryMap &^= bit
		c.entries = removeAt(n.entries, i)
		return c, true
	}
	if n.nodeMap&bit == 0 {
		return n, false
	}
	i := index(n.nodeMap, bit)
	child, removed := b.del(n.children[i], shift+fanLog, h, key)
	if !removed {
		return n, false
	}
	c := b.own(n, keepBoth)
	c.children[i] = child
	return c, true
}

// walk visits every entry of the subtree; returns false to stop early.
func walk[V any](n *node[V], fn func(string, V) bool) bool {
	for i := range n.entries {
		if !fn(n.entries[i].key, n.entries[i].val) {
			return false
		}
	}
	for _, child := range n.children {
		if !walk(child, fn) {
			return false
		}
	}
	return true
}
