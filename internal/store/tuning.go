package store

// SinkTuner is the optional capability by which a store (or a wrapper in
// front of it) advertises a preferred ChunkSink hashing configuration.
// Builders open sinks deep inside the value and index layers, far from the
// code that knows the deployment's core budget; attaching the preference to
// the store handle lets forkbase.WithSinkHashers reach every sink opened
// over that handle without threading a knob through each constructor — the
// same discovery pattern as NodeCacheProvider.
type SinkTuner interface {
	// SinkHashers returns the preferred hashing worker count: n > 0 runs n
	// workers, n < 0 pins hashing to the producer goroutine (synchronous),
	// and 0 means "no preference" (the sink's own default applies).
	SinkHashers() int
}

// tunedStore attaches a sink-hashing preference to an inner store.  All
// Store methods delegate, and Unwrap keeps the wrapper transparent to every
// other discovery path.
type tunedStore struct {
	Store
	hashers int
}

// WithSinkHashers returns a store over which every ChunkSink defaults to n
// hashing workers (n < 0 pins hashing synchronous to the producer).  n == 0
// means "no preference" and returns inner unchanged.  An explicit
// SinkOptions.Hashers set by the sink's opener still wins.
func WithSinkHashers(inner Store, n int) Store {
	if n == 0 {
		return inner
	}
	return &tunedStore{Store: inner, hashers: n}
}

// SinkHashers implements SinkTuner.
func (s *tunedStore) SinkHashers() int { return s.hashers }

// Unwrap exposes the inner store (capability discovery through As).
func (s *tunedStore) Unwrap() Store { return s.Store }

// SinkHashersOf returns the hashing preference attached to st, or 0 when no
// layer carries one.  The Unwrap chain is walked, so the preference
// survives whatever layering core.Open assembles.
func SinkHashersOf(st Store) int {
	for st != nil {
		if t, ok := st.(SinkTuner); ok {
			if n := t.SinkHashers(); n != 0 {
				return n
			}
		}
		u, ok := st.(interface{ Unwrap() Store })
		if !ok {
			return 0
		}
		st = u.Unwrap()
	}
	return 0
}

var _ SinkTuner = (*tunedStore)(nil)
