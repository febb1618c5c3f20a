package pos

import (
	"bytes"
	"fmt"
	"sort"

	"forkbase/internal/chunk"
	"forkbase/internal/hash"
	"forkbase/internal/index"
	"forkbase/internal/store"
)

// Op is a single mutation in an edit batch: a put (Delete=false) or a
// delete (Delete=true).  It is the shared mutation type of the
// versioned-index layer.
type Op = index.Op

// Put returns a put op; Del returns a delete op.
var (
	Put = index.Put
	Del = index.Del
)

// normalizeOps sorts ops by key keeping only the last op per key.
func normalizeOps(ops []Op) []Op {
	sorted := make([]Op, len(ops))
	copy(sorted, ops)
	sort.SliceStable(sorted, func(i, j int) bool {
		return bytes.Compare(sorted[i].Key, sorted[j].Key) < 0
	})
	out := sorted[:0]
	for i, o := range sorted {
		if i+1 < len(sorted) && bytes.Equal(o.Key, sorted[i+1].Key) {
			continue
		}
		out = append(out, o)
	}
	return out
}

// levelInfo is a materialised level of the tree: the refs of its nodes and,
// for index levels, where each node's children start in the level below.
type levelInfo struct {
	refs       []childRef
	childStart []int // childStart[i] = index in lower level of node i's first child
}

// materializeLevels reads every index node (but no leaves) and returns the
// levels bottom-up: levels[0] are leaf refs, levels[len-1] is the root.
func (t *Tree) materializeLevels() ([]levelInfo, error) {
	rootNode, err := t.src.load(t.root)
	if err != nil {
		return nil, fmt.Errorf("pos: edit: %w", err)
	}
	if rootNode.typ == chunk.TypeMapLeaf {
		return []levelInfo{{refs: []childRef{{id: t.root, count: t.count, splitKey: lastLeafKey(rootNode)}}}}, nil
	}
	// Walk top-down accumulating levels, then reverse.
	var topDown []levelInfo
	cur := []childRef{{id: t.root, count: t.count}}
	for {
		topDown = append(topDown, levelInfo{refs: cur})
		var lower []childRef
		starts := make([]int, len(cur))
		leaf := false
		for i, r := range cur {
			starts[i] = len(lower)
			n, err := t.src.load(r.id)
			if err != nil {
				return nil, fmt.Errorf("pos: edit: %w", err)
			}
			switch n.typ {
			case chunk.TypeMapIndex:
				lower = append(lower, n.refs...)
			case chunk.TypeMapLeaf:
				leaf = true
			default:
				return nil, fmt.Errorf("pos: unexpected chunk type %s", n.typ)
			}
		}
		if leaf {
			break
		}
		topDown[len(topDown)-1].childStart = starts
		cur = lower
	}
	// Reverse into bottom-up order.
	levels := make([]levelInfo, len(topDown))
	for i := range topDown {
		levels[len(topDown)-1-i] = topDown[i]
	}
	return levels, nil
}

func lastLeafKey(n *node) []byte {
	if n.numEntries() == 0 {
		return nil
	}
	return n.keyAt(n.numEntries() - 1)
}

// Edit applies a batch of mutations and returns the resulting tree.
//
// The edit is *incremental*: chunking restarts at the first affected leaf and
// proceeds only until the content-defined boundaries re-synchronise with the
// old tree, at which point the remaining nodes — at every level — are reused
// verbatim (SIRI property 2, "recursively identical").  The result is
// guaranteed byte-identical to rebuilding the tree from scratch over the
// edited record set; the property tests in edit_test.go enforce this.
func (t *Tree) Edit(ops []Op) (*Tree, error) {
	ops = normalizeOps(ops)
	if len(ops) == 0 {
		return t, nil
	}
	if t.root.IsZero() {
		var entries []Entry
		for _, o := range ops {
			if !o.Delete {
				entries = append(entries, Entry{Key: o.Key, Val: o.Val})
			}
		}
		return BuildMap(t.src.st, t.cfg, entries)
	}

	levels, err := t.materializeLevels()
	if err != nil {
		return nil, err
	}
	leafRefs := levels[0].refs

	// Edits write through a dedup-checking sink: nodes whose bytes already
	// exist (identity rewrites, shared subtrees) cost an index lookup, not a
	// write.  The deferred Close lands stray emissions on the no-new-tree
	// return paths; paths that return a new tree flush explicitly first.
	sink := editSink(t.src.st)
	defer sink.Close()
	done := func(tr *Tree) (*Tree, error) {
		if err := sink.Flush(); err != nil {
			return nil, err
		}
		return tr, nil
	}

	lo, hi, newRefs, delta, err := t.editLeaves(sink, leafRefs, ops)
	if err != nil {
		return nil, err
	}
	if lo == hi && len(newRefs) == 0 {
		return t, nil // all ops were no-ops
	}
	// Fast path: detect fully-unchanged splices (ops that rewrote identical
	// content), so Edit(identity) returns the identical root.
	if hi-lo == len(newRefs) {
		same := true
		for k := range newRefs {
			if newRefs[k].id != leafRefs[lo+k].id {
				same = false
				break
			}
		}
		if same {
			return t, nil
		}
	}

	newCount := uint64(int64(t.count) + delta)
	cur := splice{lo: lo, hi: hi, refs: newRefs}
	for h := 0; ; h++ {
		level := levels[h]
		total := len(level.refs) - (cur.hi - cur.lo) + len(cur.refs)
		if total == 0 {
			return done(&Tree{src: t.src, cfg: t.cfg}) // tree emptied
		}
		if total == 1 {
			root := singleSurvivor(level.refs, cur)
			return done(&Tree{src: t.src, cfg: t.cfg, root: root.id, count: newCount})
		}
		if h == len(levels)-1 {
			// Top existing level still has multiple nodes: stack fresh
			// index levels above the full spliced list.
			full := make([]childRef, 0, total)
			full = append(full, level.refs[:cur.lo]...)
			full = append(full, cur.refs...)
			full = append(full, level.refs[cur.hi:]...)
			root, err := buildLevels(sink, t.cfg, full, uint8(h+1), true)
			if err != nil {
				return nil, err
			}
			return done(&Tree{src: t.src, cfg: t.cfg, root: root.id, count: newCount})
		}
		cur, err = t.spliceLevel(sink, levels[h+1], level.refs, cur, uint8(h+1))
		if err != nil {
			return nil, err
		}
	}
}

// splice describes the replacement of node range [lo, hi) of a level by refs.
type splice struct {
	lo, hi int
	refs   []childRef
}

func singleSurvivor(old []childRef, s splice) childRef {
	if len(s.refs) == 1 && s.lo == 0 && s.hi == len(old) {
		return s.refs[0]
	}
	if s.lo > 0 {
		return old[0]
	}
	return old[len(old)-1]
}

// editLeaves re-chunks the leaf level across the affected key range.
// It returns the replaced leaf range [lo, hi), the replacement refs, and the
// entry-count delta.
func (t *Tree) editLeaves(sink *store.ChunkSink, leafRefs []childRef, ops []Op) (lo, hi int, out []childRef, delta int64, err error) {
	firstKey := ops[0].Key
	lo = sort.Search(len(leafRefs), func(i int) bool {
		return bytes.Compare(leafRefs[i].splitKey, firstKey) >= 0
	})
	if lo == len(leafRefs) {
		lo = len(leafRefs) - 1
	}

	lb := newLevelBuilder(sink, t.cfg, 0, true)
	oldLeaf := lo
	var old *node // the loaded leaf oldLeaf, once loaded is true
	oldPos := 0
	loaded := false

	// peekOld returns the key of the next untouched entry of the old tree,
	// loading leaves lazily; ok=false at the end of the tree.
	peekOld := func() ([]byte, bool, error) {
		for {
			if oldLeaf >= len(leafRefs) {
				return nil, false, nil
			}
			if !loaded {
				old, err = t.src.loadMapLeaf(leafRefs[oldLeaf].id)
				if err != nil {
					return nil, false, err
				}
				loaded = true
				oldPos = 0
			}
			if oldPos < old.numEntries() {
				return old.keyAt(oldPos), true, nil
			}
			oldLeaf++
			loaded = false
		}
	}
	advanceOld := func() { oldPos++ }
	// passOld feeds the peeked old entry through unchanged: its encoded
	// bytes are copied, since encodeEntry would reproduce them exactly.
	passOld := func(key []byte) error {
		if err := lb.addEncodedEntry(old.rawEntry(oldPos), key); err != nil {
			return err
		}
		advanceOld()
		return nil
	}
	feed := func(e Entry, isNew bool) error {
		if isNew {
			delta++
		}
		return lb.addEntry(e)
	}

	opIdx := 0
	for {
		if opIdx >= len(ops) {
			// Tail phase: pass old entries through until the chunker
			// re-synchronises with an old leaf boundary.
			k, ok, perr := peekOld()
			if perr != nil {
				return 0, 0, nil, 0, perr
			}
			if !ok {
				hi = len(leafRefs)
				break
			}
			if oldPos == 0 && lb.atBoundary() {
				hi = oldLeaf
				break
			}
			if err := passOld(k); err != nil {
				return 0, 0, nil, 0, err
			}
			continue
		}
		op := ops[opIdx]
		k, ok, perr := peekOld()
		if perr != nil {
			return 0, 0, nil, 0, perr
		}
		switch {
		case ok && bytes.Compare(k, op.Key) < 0:
			if err := passOld(k); err != nil {
				return 0, 0, nil, 0, err
			}
		case ok && bytes.Equal(k, op.Key):
			if op.Delete {
				delta--
			} else if err := feed(Entry{Key: op.Key, Val: op.Val}, false); err != nil {
				return 0, 0, nil, 0, err
			}
			advanceOld()
			opIdx++
		default: // old exhausted, or op key precedes next old key: insertion point
			if !op.Delete {
				if err := feed(Entry{Key: op.Key, Val: op.Val}, true); err != nil {
					return 0, 0, nil, 0, err
				}
			}
			opIdx++
		}
	}
	out, err = lb.finish()
	if err != nil {
		return 0, 0, nil, 0, err
	}
	return lo, hi, out, delta, nil
}

// spliceLevel propagates a lower-level splice through index level `level`
// (whose nodes' children are lowerOld).  It re-chunks index entries from the
// first affected node until re-synchronisation and returns the splice to
// apply one level up.
func (t *Tree) spliceLevel(sink *store.ChunkSink, level levelInfo, lowerOld []childRef, s splice, levelNo uint8) (splice, error) {
	starts := level.childStart
	// Node a: the last node whose first child is <= s.lo.
	a := sort.Search(len(starts), func(i int) bool { return starts[i] > s.lo }) - 1
	if a < 0 {
		a = 0
	}

	lb := newLevelBuilder(sink, t.cfg, levelNo, true)
	feed := func(r childRef) error {
		return lb.addRef(r)
	}

	pos := starts[a]
	newIdx := 0
	c := len(level.refs)
	// nodeStartAt returns (node index, true) when pos is the first child of
	// a node after a.
	nodeStartAt := func(pos int) (int, bool) {
		i := sort.Search(len(starts), func(i int) bool { return starts[i] >= pos })
		if i < len(starts) && starts[i] == pos && i > a {
			return i, true
		}
		return 0, false
	}
	for {
		if pos < s.lo {
			if err := feed(lowerOld[pos]); err != nil {
				return splice{}, err
			}
			pos++
			continue
		}
		if newIdx < len(s.refs) {
			if err := feed(s.refs[newIdx]); err != nil {
				return splice{}, err
			}
			newIdx++
			continue
		}
		if pos < s.hi {
			pos = s.hi
			continue
		}
		// Tail: reuse as soon as boundaries align.
		if pos == len(lowerOld) {
			c = len(level.refs)
			break
		}
		if lb.atBoundary() {
			if node, ok := nodeStartAt(pos); ok {
				c = node
				break
			}
		}
		if err := feed(lowerOld[pos]); err != nil {
			return splice{}, err
		}
		pos++
	}
	out, err := lb.finish()
	if err != nil {
		return splice{}, err
	}
	return splice{lo: a, hi: c, refs: out}, nil
}

// EditRebuild is the reference implementation of Edit: it streams the entire
// edited record set through a fresh build.  It must produce a byte-identical
// tree to Edit; it exists for the incremental-vs-rebuild ablation and as the
// oracle for property tests.
func (t *Tree) EditRebuild(ops []Op) (*Tree, error) {
	ops = normalizeOps(ops)
	if len(ops) == 0 {
		return t, nil
	}
	// The rebuild re-emits the entire record set, almost all of which chunks
	// identically to the existing tree — exactly the case the sink's dedup
	// pre-check turns into index lookups instead of writes.
	sink := editSink(t.src.st)
	defer sink.Close()
	lb := newLevelBuilder(sink, t.cfg, 0, true)
	feed := func(e Entry) error {
		return lb.addEntry(e)
	}
	it, err := t.Iter()
	if err != nil {
		return nil, err
	}
	opIdx := 0
	advanced := it.Next()
	for advanced || opIdx < len(ops) {
		switch {
		case advanced && opIdx < len(ops):
			e, op := it.Entry(), ops[opIdx]
			cmp := bytes.Compare(e.Key, op.Key)
			switch {
			case cmp < 0:
				if err := feed(e); err != nil {
					return nil, err
				}
				advanced = it.Next()
			case cmp == 0:
				if !op.Delete {
					if err := feed(Entry{Key: op.Key, Val: op.Val}); err != nil {
						return nil, err
					}
				}
				advanced = it.Next()
				opIdx++
			default:
				if !op.Delete {
					if err := feed(Entry{Key: op.Key, Val: op.Val}); err != nil {
						return nil, err
					}
				}
				opIdx++
			}
		case advanced:
			if err := feed(it.Entry()); err != nil {
				return nil, err
			}
			advanced = it.Next()
		default:
			op := ops[opIdx]
			if !op.Delete {
				if err := feed(Entry{Key: op.Key, Val: op.Val}); err != nil {
					return nil, err
				}
			}
			opIdx++
		}
	}
	if err := it.Err(); err != nil {
		return nil, err
	}
	leaves, err := lb.finish()
	if err != nil {
		return nil, err
	}
	root, err := buildLevels(sink, t.cfg, leaves, 1, true)
	if err != nil {
		return nil, err
	}
	if err := sink.Flush(); err != nil {
		return nil, err
	}
	return &Tree{src: t.src, cfg: t.cfg, root: root.id, count: root.count}, nil
}

// Insert is a convenience single-key put.
func (t *Tree) Insert(key, val []byte) (*Tree, error) {
	return t.Edit([]Op{Put(key, val)})
}

// Remove is a convenience single-key delete.
func (t *Tree) Remove(key []byte) (*Tree, error) {
	return t.Edit([]Op{Del(key)})
}

var _ = hash.Hash{} // keep hash imported for documentation references
