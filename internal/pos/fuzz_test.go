package pos

import (
	"bytes"
	"testing"

	"forkbase/internal/chunk"
)

// FuzzDecodeMapLeaf feeds arbitrary payloads to the map-leaf offset
// decoder.  It must never panic; every accepted payload must re-encode
// byte-identically through encodeEntry, and every keyAt/entryAt (and the
// in-place binary search built on them) must stay in bounds.  Seed corpus:
// testdata/fuzz/FuzzDecodeMapLeaf; crashes found become cases there.
func FuzzDecodeMapLeaf(f *testing.F) {
	leaf := func(es ...Entry) []byte {
		p := appendUvarint([]byte{0}, uint64(len(es)))
		for _, e := range es {
			p = encodeEntry(p, e)
		}
		return p
	}
	f.Add(leaf())
	f.Add(leaf(Entry{Key: []byte("a"), Val: []byte("1")}, Entry{Key: []byte("b"), Val: nil}))
	f.Add(leaf(Entry{Key: bytes.Repeat([]byte("k"), 200), Val: bytes.Repeat([]byte("v"), 300)}))
	f.Fuzz(func(t *testing.T, data []byte) {
		offs, err := decodeMapLeaf(data)
		if err != nil {
			return
		}
		n := &node{typ: chunk.TypeMapLeaf, leaf: data, offs: offs}
		re := appendUvarint([]byte{0}, uint64(n.numEntries()))
		for i := 0; i < n.numEntries(); i++ {
			e := n.entryAt(i)
			if k := n.keyAt(i); !bytes.Equal(k, e.Key) || cap(k) != len(k) {
				t.Fatalf("entry %d: keyAt %q, entryAt key %q", i, k, e.Key)
			}
			if cap(e.Val) != len(e.Val) {
				t.Fatalf("entry %d: value slice can grow into the payload", i)
			}
			re = encodeEntry(re, e)
			n.searchLeaf(e.Key)
		}
		if !bytes.Equal(re, data) {
			t.Fatalf("accepted a payload that re-encodes differently:\n in  %x\n out %x", data, re)
		}
		n.searchLeaf(data)
	})
}
