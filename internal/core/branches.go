// Package core implements the ForkBase storage engine: an extended
// key-value model where each object (key) carries multiple named branches,
// each branch heads a tamper-evident chain of versions (paper §II-D), and
// Git-like operations — Put, Get, Branch, Merge, Diff, Head, Latest, Rename
// — are first-class storage operations (paper Fig 1).
package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"forkbase/internal/hash"
)

// BranchTable tracks the head uid of every (key, branch).  In the paper's
// threat model the storage provider is untrusted but "the users keep track
// of the latest uid of every branch" — the branch table is that trusted
// client-side state, which is why it lives outside the chunk store.
//
// Implementations must be safe for concurrent use.
type BranchTable interface {
	// Head returns the branch head; ok=false if the branch does not exist.
	Head(key, branch string) (uid hash.Hash, ok bool, err error)
	// CompareAndSet atomically updates a head: old must match the current
	// head (zero hash means "branch must not exist").  It returns false
	// without changing anything on mismatch.
	CompareAndSet(key, branch string, old, new hash.Hash) (bool, error)
	// Delete removes a branch.
	Delete(key, branch string) error
	// Rename moves a branch head to a new name atomically.
	Rename(key, from, to string) error
	// Branches lists branch→head for a key.
	Branches(key string) (map[string]hash.Hash, error)
	// Keys lists all keys with at least one branch, sorted.
	Keys() ([]string, error)
}

// Branch-table errors.
var (
	ErrBranchExists   = errors.New("core: branch already exists")
	ErrBranchNotFound = errors.New("core: branch not found")
	ErrKeyNotFound    = errors.New("core: key not found")
	ErrStaleHead      = errors.New("core: concurrent update (stale head)")
)

// MemBranchTable is the in-memory branch table.
type MemBranchTable struct {
	mu    sync.RWMutex
	heads map[string]map[string]hash.Hash // key -> branch -> uid
}

var _ BranchTable = (*MemBranchTable)(nil)

// NewMemBranchTable returns an empty branch table.
func NewMemBranchTable() *MemBranchTable {
	return &MemBranchTable{heads: make(map[string]map[string]hash.Hash)}
}

// Head implements BranchTable.
func (m *MemBranchTable) Head(key, branch string) (hash.Hash, bool, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	uid, ok := m.heads[key][branch]
	return uid, ok, nil
}

// CompareAndSet implements BranchTable.
func (m *MemBranchTable) CompareAndSet(key, branch string, old, new hash.Hash) (bool, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	cur := m.heads[key][branch]
	if cur != old {
		return false, nil
	}
	if m.heads[key] == nil {
		m.heads[key] = make(map[string]hash.Hash)
	}
	m.heads[key][branch] = new
	return true, nil
}

// Delete implements BranchTable.
func (m *MemBranchTable) Delete(key, branch string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.heads[key][branch]; !ok {
		return fmt.Errorf("%w: %s@%s", ErrBranchNotFound, key, branch)
	}
	delete(m.heads[key], branch)
	if len(m.heads[key]) == 0 {
		delete(m.heads, key)
	}
	return nil
}

// Rename implements BranchTable.
func (m *MemBranchTable) Rename(key, from, to string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	uid, ok := m.heads[key][from]
	if !ok {
		return fmt.Errorf("%w: %s@%s", ErrBranchNotFound, key, from)
	}
	if _, exists := m.heads[key][to]; exists {
		return fmt.Errorf("%w: %s@%s", ErrBranchExists, key, to)
	}
	m.heads[key][to] = uid
	delete(m.heads[key], from)
	return nil
}

// Branches implements BranchTable.
func (m *MemBranchTable) Branches(key string) (map[string]hash.Hash, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	src, ok := m.heads[key]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrKeyNotFound, key)
	}
	out := make(map[string]hash.Hash, len(src))
	for b, u := range src {
		out[b] = u
	}
	return out, nil
}

// Keys implements BranchTable.
func (m *MemBranchTable) Keys() ([]string, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make([]string, 0, len(m.heads))
	for k := range m.heads {
		out = append(out, k)
	}
	sort.Strings(out)
	return out, nil
}

// FileBranchTable persists heads to a JSON file next to the chunk log, so a
// file-backed ForkBase instance recovers its branches on reopen.  All
// mutations are written through synchronously, and the file is written
// before the in-memory table changes: a mutation whose write fails returns
// the error and leaves the table as it was.
type FileBranchTable struct {
	mem  *MemBranchTable
	path string
	mu   sync.Mutex // serialises file writes
}

var _ BranchTable = (*FileBranchTable)(nil)

// OpenFileBranchTable loads (or creates) the branch file in dir.
func OpenFileBranchTable(dir string) (*FileBranchTable, error) {
	f := &FileBranchTable{mem: NewMemBranchTable(), path: filepath.Join(dir, "branches.json")}
	data, err := os.ReadFile(f.path)
	if errors.Is(err, os.ErrNotExist) {
		return f, nil
	}
	if err != nil {
		return nil, fmt.Errorf("core: branch table: %w", err)
	}
	var raw map[string]map[string]string
	if err := json.Unmarshal(data, &raw); err != nil {
		return nil, fmt.Errorf("core: branch table corrupt: %w", err)
	}
	for key, branches := range raw {
		for br, uidStr := range branches {
			uid, err := hash.Parse(uidStr)
			if err != nil {
				return nil, fmt.Errorf("core: branch table corrupt uid for %s@%s: %w", key, br, err)
			}
			if f.mem.heads[key] == nil {
				f.mem.heads[key] = make(map[string]hash.Hash)
			}
			f.mem.heads[key][br] = uid
		}
	}
	return f, nil
}

// persist writes the table as it will be once edit has run on it.  edit
// changes only the snapshot written; the caller applies the same change to
// f.mem after persist succeeds.  The caller holds f.mu.
func (f *FileBranchTable) persist(edit func(raw map[string]map[string]string)) error {
	f.mem.mu.RLock()
	raw := make(map[string]map[string]string, len(f.mem.heads))
	for key, branches := range f.mem.heads {
		m := make(map[string]string, len(branches))
		for br, uid := range branches {
			m[br] = uid.String()
		}
		raw[key] = m
	}
	f.mem.mu.RUnlock()
	edit(raw)
	data, err := json.MarshalIndent(raw, "", "  ")
	if err != nil {
		return err
	}
	tmp := f.path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, f.path)
}

// Head implements BranchTable.
func (f *FileBranchTable) Head(key, branch string) (hash.Hash, bool, error) {
	return f.mem.Head(key, branch)
}

// CompareAndSet implements BranchTable.  f.mu serialises every mutation,
// so the head checked here is still current when f.mem is updated.
func (f *FileBranchTable) CompareAndSet(key, branch string, old, new hash.Hash) (bool, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if cur, _, _ := f.mem.Head(key, branch); cur != old {
		return false, nil
	}
	err := f.persist(func(raw map[string]map[string]string) {
		if raw[key] == nil {
			raw[key] = make(map[string]string)
		}
		raw[key][branch] = new.String()
	})
	if err != nil {
		return false, err
	}
	return f.mem.CompareAndSet(key, branch, old, new)
}

// Delete implements BranchTable.
func (f *FileBranchTable) Delete(key, branch string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, ok, _ := f.mem.Head(key, branch); !ok {
		return fmt.Errorf("%w: %s@%s", ErrBranchNotFound, key, branch)
	}
	err := f.persist(func(raw map[string]map[string]string) {
		delete(raw[key], branch)
		if len(raw[key]) == 0 {
			delete(raw, key)
		}
	})
	if err != nil {
		return err
	}
	return f.mem.Delete(key, branch)
}

// Rename implements BranchTable.
func (f *FileBranchTable) Rename(key, from, to string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, ok, _ := f.mem.Head(key, from); !ok {
		return fmt.Errorf("%w: %s@%s", ErrBranchNotFound, key, from)
	}
	if _, exists, _ := f.mem.Head(key, to); exists {
		return fmt.Errorf("%w: %s@%s", ErrBranchExists, key, to)
	}
	err := f.persist(func(raw map[string]map[string]string) {
		raw[key][to] = raw[key][from]
		delete(raw[key], from)
	})
	if err != nil {
		return err
	}
	return f.mem.Rename(key, from, to)
}

// Branches implements BranchTable.
func (f *FileBranchTable) Branches(key string) (map[string]hash.Hash, error) {
	return f.mem.Branches(key)
}

// Keys implements BranchTable.
func (f *FileBranchTable) Keys() ([]string, error) { return f.mem.Keys() }
