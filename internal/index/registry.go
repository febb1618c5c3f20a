package index

import (
	"fmt"
	"sync"

	"forkbase/internal/chunk"
	"forkbase/internal/chunker"
	"forkbase/internal/hash"
	"forkbase/internal/nodecache"
	"forkbase/internal/store"
)

// Factory constructs indexes of one Kind.  Implementations register
// themselves from their package's init; nothing above the index layer ever
// constructs a concrete structure directly.
type Factory interface {
	// Kind identifies the structure this factory builds.
	Kind() Kind
	// Empty returns the empty index (zero root).
	Empty(st store.Store, cfg chunker.Config) VersionedIndex
	// Load attaches to an existing index by root hash.  A zero root is the
	// empty index.
	Load(st store.Store, cfg chunker.Config, root hash.Hash) (VersionedIndex, error)
	// Build constructs an index over entries (need not be sorted; duplicate
	// keys keep the last value).
	Build(st store.Store, cfg chunker.Config, entries []Entry) (VersionedIndex, error)
}

// Node is a decoded index node as the decoded-node cache holds it.  It
// reports the type of the chunk it was decoded from, so KindOfRoot can sniff
// a cached root without reading the store.
type Node interface {
	ChunkType() chunk.Type
}

// NodeDecoder decodes a node chunk into the form its structure keeps in the
// decoded-node cache, returning the byte size to charge the cache.
type NodeDecoder func(c *chunk.Chunk) (Node, int, error)

// rootType is what RegisterRoot records for one root chunk type.
type rootType struct {
	kind   Kind
	decode NodeDecoder
}

// ChildrenFunc returns the child chunk hashes an index node references
// (nil for leaves).
type ChildrenFunc func(c *chunk.Chunk) ([]hash.Hash, error)

var registry struct {
	mu       sync.RWMutex
	kinds    map[Kind]Factory
	children map[chunk.Type]ChildrenFunc
	roots    map[chunk.Type]rootType
}

// Register installs a structure's factory; called from the implementing
// package's init.  Registering the same kind twice panics — it means two
// packages claim one kind byte.
func Register(f Factory) {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	if registry.kinds == nil {
		registry.kinds = map[Kind]Factory{}
	}
	if _, dup := registry.kinds[f.Kind()]; dup {
		panic(fmt.Sprintf("index: kind %s registered twice", f.Kind()))
	}
	registry.kinds[f.Kind()] = f
}

// RegisterChildren installs the child-hash decoder for one node chunk type.
// GC reachability, verification and the replication Merkle prune dispatch
// through Children instead of naming a structure.
func RegisterChildren(t chunk.Type, fn ChildrenFunc) {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	if registry.children == nil {
		registry.children = map[chunk.Type]ChildrenFunc{}
	}
	if _, dup := registry.children[t]; dup {
		panic(fmt.Sprintf("index: children decoder for chunk type %s registered twice", t))
	}
	registry.children[t] = fn
}

// RegisterRoot declares that a chunk of type t can be the root of a Kind k
// index, letting Load sniff the structure from stored data.  decode is the
// structure's own node decoder: a sniff that misses the cache decodes the
// root it had to read and caches it, so the factory's load that follows
// finds it there instead of reading the store a second time.
func RegisterRoot(t chunk.Type, k Kind, decode NodeDecoder) {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	if registry.roots == nil {
		registry.roots = map[chunk.Type]rootType{}
	}
	if prev, dup := registry.roots[t]; dup && prev.kind != k {
		panic(fmt.Sprintf("index: root chunk type %s claimed by kinds %s and %s", t, prev.kind, k))
	}
	registry.roots[t] = rootType{kind: k, decode: decode}
}

// rootOf returns what RegisterRoot recorded for chunk type t.
func rootOf(t chunk.Type) (rootType, bool) {
	registry.mu.RLock()
	r, ok := registry.roots[t]
	registry.mu.RUnlock()
	return r, ok
}

// For returns the factory for kind k, or an error when no package
// implementing k is linked in.
func For(k Kind) (Factory, error) {
	registry.mu.RLock()
	defer registry.mu.RUnlock()
	f, ok := registry.kinds[k]
	if !ok {
		return nil, fmt.Errorf("index: no factory registered for kind %s", k)
	}
	return f, nil
}

// Registered reports whether kind k has a linked-in implementation.
func Registered(k Kind) bool {
	registry.mu.RLock()
	defer registry.mu.RUnlock()
	_, ok := registry.kinds[k]
	return ok
}

// Children returns the chunk ids a node chunk references, dispatching on
// the chunk's type.  Chunk types with no registered decoder — leaves,
// FNodes, tags — reference nothing and return (nil, nil), so reachability
// walks can feed every chunk through here.
func Children(c *chunk.Chunk) ([]hash.Hash, error) {
	registry.mu.RLock()
	fn := registry.children[c.Type()]
	registry.mu.RUnlock()
	if fn == nil {
		return nil, nil
	}
	return fn(c)
}

// KindOfRoot identifies the index structure rooted at root by the root
// chunk's type tag — stored data is self-describing, so readers need no
// out-of-band metadata.  A root in st's decoded-node cache reports its type
// without a store read.  On a miss the root is read once, and with a cache
// present it is decoded and cached for the factory Load that follows.
func KindOfRoot(st store.Store, root hash.Hash) (Kind, error) {
	typ, err := sniffType(st, root)
	if err != nil {
		return 0, err
	}
	r, ok := rootOf(typ)
	if !ok {
		return 0, errNotRoot(root, typ)
	}
	return r.kind, nil
}

// sniffType returns the chunk type of root, from the cache when it can.
func sniffType(st store.Store, root hash.Hash) (chunk.Type, error) {
	get := func() (*chunk.Chunk, error) {
		c, err := st.Get(root)
		if err != nil {
			return nil, fmt.Errorf("index: sniffing root %s: %w", root.Short(), err)
		}
		return c, nil
	}
	cache := store.NodeCacheOf(st)
	if cache == nil {
		c, err := get()
		if err != nil {
			return 0, err
		}
		return c.Type(), nil
	}
	n, err := nodecache.Load(cache, root, func() (Node, int, error) {
		c, err := get()
		if err != nil {
			return nil, 0, err
		}
		r, ok := rootOf(c.Type())
		if !ok {
			return nil, 0, errNotRoot(root, c.Type())
		}
		return r.decode(c)
	})
	if err != nil {
		return 0, err
	}
	return n.ChunkType(), nil
}

func errNotRoot(root hash.Hash, t chunk.Type) error {
	return fmt.Errorf("index: chunk %s (type %s) is not a known index root", root.Short(), t)
}

// Load attaches to the index rooted at root, sniffing the structure from
// the root chunk.  A zero root loads as the empty index of hint's kind
// (an empty index has no chunk to sniff).
func Load(st store.Store, cfg chunker.Config, root hash.Hash, hint Kind) (VersionedIndex, error) {
	k := hint
	if !root.IsZero() {
		var err error
		if k, err = KindOfRoot(st, root); err != nil {
			return nil, err
		}
	}
	f, err := For(k)
	if err != nil {
		return nil, err
	}
	return f.Load(st, cfg, root)
}
