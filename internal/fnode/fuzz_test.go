package fnode

import (
	"bytes"
	"testing"

	"forkbase/internal/hash"
	"forkbase/internal/index"
	"forkbase/internal/value"
)

// FuzzFNodeDecode feeds arbitrary payloads to Decode.  A decoded FNode is
// shared through the node cache, so Decode is a trust boundary: it must
// never panic, and it must accept only the canonical form, so every
// accepted payload re-encodes byte-identically (one uid per version).
// Seed corpus: testdata/fuzz/FuzzFNodeDecode; crashes found become cases
// there.
func FuzzFNodeDecode(f *testing.F) {
	plain := New([]byte("k"), value.String("v"), nil, 1, nil)
	merged := New([]byte("dataset"), value.String("x"),
		[]hash.Hash{hash.Of([]byte("a")), hash.Of([]byte("b"))}, 9,
		map[string]string{"author": "alice", "msg": "merge"})
	mpt := New([]byte("t"), value.String("y"), nil, 2, map[string]string{"m": ""})
	mpt.Index = index.KindMPT
	for _, fn := range []*FNode{plain, merged, mpt} {
		f.Add(fn.Encode())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		fn, err := Decode(data)
		if err != nil {
			return
		}
		if got := fn.Encode(); !bytes.Equal(got, data) {
			t.Fatalf("accepted a payload that re-encodes differently:\n in  %x\n out %x", data, got)
		}
	})
}
