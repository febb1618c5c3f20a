package pos

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"forkbase/internal/chunk"
	"forkbase/internal/hash"
	"forkbase/internal/nodecache"
	"forkbase/internal/store"
)

// node is a decoded POS-Tree node.  It is immutable after decode: leaf,
// items, blob and refs alias the underlying chunk payload and must never be
// mutated, which is what makes a node safe to share between concurrent
// traversals and to keep in the decoded-node cache.
//
// A map leaf stays in its encoded form: leaf is the payload and offs the
// offset of each entry in it, so a cached leaf is one byte slice plus one
// pointer-free offset array, and keyAt/entryAt slice entries out of it on
// demand without allocating.
type node struct {
	typ   chunk.Type
	level uint8

	leaf  []byte     // TypeMapLeaf payload
	offs  []uint32   // TypeMapLeaf: offset of entry i in leaf
	items [][]byte   // TypeSeqLeaf
	blob  []byte     // TypeBlobLeaf
	refs  []childRef // TypeMapIndex / TypeSeqIndex

	encSize int // encoded chunk size (header + payload), for tree stats
	memSize int // approximate decoded footprint, for cache accounting
}

// isLeaf reports whether the node sits at level 0 of its tree.
func (n *node) isLeaf() bool {
	switch n.typ {
	case chunk.TypeMapLeaf, chunk.TypeSeqLeaf, chunk.TypeBlobLeaf:
		return true
	}
	return false
}

// ChunkType reports the type of the chunk the node was decoded from; it is
// how index.KindOfRoot sniffs a cached root without a store read.
func (n *node) ChunkType() chunk.Type { return n.typ }

// numEntries is the entry count of a map leaf.
func (n *node) numEntries() int { return len(n.offs) }

// keyAt returns the key of map-leaf entry i, aliasing the payload.
func (n *node) keyAt(i int) []byte {
	k, _ := n.fieldAt(int(n.offs[i]))
	return k
}

// entryAt returns map-leaf entry i, aliasing the payload.
func (n *node) entryAt(i int) Entry {
	k, next := n.fieldAt(int(n.offs[i]))
	v, _ := n.fieldAt(next)
	return Entry{Key: k, Val: v}
}

// rawEntry returns the encoded bytes of map-leaf entry i.
func (n *node) rawEntry(i int) []byte {
	end := len(n.leaf)
	if i+1 < len(n.offs) {
		end = int(n.offs[i+1])
	}
	return n.leaf[n.offs[i]:end]
}

// fieldAt returns the length-prefixed field at offset o of a map-leaf
// payload, capped so appends cannot reach the bytes after it, and the
// offset just past it.  decodeMapLeaf validated every field, so there is
// nothing left to check.  A one-byte length — nearly every key and value —
// skips the varint decoder.
func (n *node) fieldAt(o int) ([]byte, int) {
	if l := int(n.leaf[o]); l < 0x80 {
		e := o + 1 + l
		return n.leaf[o+1 : e : e], e
	}
	return n.longFieldAt(o)
}

func (n *node) longFieldAt(o int) ([]byte, int) {
	l, sz := binary.Uvarint(n.leaf[o:])
	s := o + sz
	e := s + int(l)
	return n.leaf[s:e:e], e
}

// searchLeaf returns the index of the first map-leaf entry whose key is
// >= key (numEntries when there is none).  It is the hot loop of a point
// read, so each probe takes fieldAt's one-byte fast path inline.
func (n *node) searchLeaf(key []byte) int {
	leaf, offs := n.leaf, n.offs
	lo, hi := 0, len(offs)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		o := int(offs[m])
		var k []byte
		if l := int(leaf[o]); l < 0x80 {
			k = leaf[o+1 : o+1+l]
		} else {
			k = n.keyAt(m)
		}
		if bytes.Compare(k, key) < 0 {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// cacheable reports whether the node type belongs in the decoded-node cache.
func (n *node) cacheable() bool {
	switch n.typ {
	case chunk.TypeMapLeaf, chunk.TypeMapIndex, chunk.TypeSeqLeaf,
		chunk.TypeSeqIndex, chunk.TypeBlobLeaf:
		return true
	}
	return false
}

// decodeNode parses a chunk into its decoded node form.  Non-tree chunk
// types yield a bare node carrying only the type tag, so call sites keep
// producing their contextual "unexpected chunk" errors.
func decodeNode(c *chunk.Chunk) (*node, error) {
	n := &node{typ: c.Type(), encSize: c.Size()}
	switch c.Type() {
	case chunk.TypeMapLeaf:
		offs, err := decodeMapLeaf(c.Data())
		if err != nil {
			return nil, err
		}
		n.leaf, n.offs = c.Data(), offs
		n.memSize = c.Size() + 4*len(offs)
	case chunk.TypeMapIndex:
		level, refs, err := decodeMapIndex(c.Data())
		if err != nil {
			return nil, err
		}
		n.level = level
		n.refs = refs
		n.memSize = c.Size() + len(refs)*72
	case chunk.TypeSeqLeaf:
		items, err := decodeSeqLeaf(c.Data())
		if err != nil {
			return nil, err
		}
		n.items = items
		n.memSize = c.Size() + len(items)*24
	case chunk.TypeSeqIndex:
		level, refs, err := decodeSeqIndex(c.Data())
		if err != nil {
			return nil, err
		}
		n.level = level
		n.refs = refs
		n.memSize = c.Size() + len(refs)*72
	case chunk.TypeBlobLeaf:
		n.blob = c.Data()
		n.memSize = c.Size()
	default:
		n.memSize = c.Size()
	}
	return n, nil
}

// nodeSource is the single gateway through which all POS-Tree traversal code
// obtains decoded nodes.  It couples a chunk store with an optional decoded-
// node cache: on a hit the store is not touched at all, and a node is
// decoded at most once per cache residency.  Correctness rests on chunk
// immutability — a hash.Hash can only ever denote one payload, so a cached
// decode can never be stale.
type nodeSource struct {
	st    store.Store
	cache *nodecache.Cache
}

// sourceFor builds a nodeSource over st, discovering a decoded-node cache
// if the store carries one (store.WithNodeCache / core.Options).
func sourceFor(st store.Store) nodeSource {
	return nodeSource{st: st, cache: store.NodeCacheOf(st)}
}

// load returns the decoded node identified by id, consulting the cache
// first; a miss reads the store once and caches the decode.
func (ns nodeSource) load(id hash.Hash) (*node, error) {
	return nodecache.Load(ns.cache, id, func() (*node, int, error) {
		c, err := ns.st.Get(id)
		if err != nil {
			return nil, 0, err
		}
		n, err := decodeNode(c)
		if err != nil {
			return nil, 0, err
		}
		if !n.cacheable() {
			return n, -1, nil
		}
		return n, n.memSize, nil
	})
}

// loadMapLeaf loads id and requires a map leaf.
func (ns nodeSource) loadMapLeaf(id hash.Hash) (*node, error) {
	n, err := ns.load(id)
	if err != nil {
		return nil, err
	}
	if n.typ != chunk.TypeMapLeaf {
		return nil, fmt.Errorf("pos: expected map leaf, got %s", n.typ)
	}
	return n, nil
}
