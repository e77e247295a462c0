package sim

import "math/rand"

// SeededRand returns a *rand.Rand whose stream equals
// rand.New(rand.NewSource(seed)) value for value, but whose source is seeded
// on its first draw. Seeding fills a 4.9 KB state, and only schemes with
// random thread scheduling ever draw, so CDCS and Jigsaw+C runs skip it.
func SeededRand(seed int64) *rand.Rand { return rand.New(&lazySource{seed: seed}) }

// lazySource is a rand.Source64 that builds the seeded math/rand source when
// a value is first drawn. The same seed is applied before the first value,
// so the stream is bit-identical to an eager source's.
type lazySource struct {
	seed int64
	src  rand.Source64
}

func (s *lazySource) source() rand.Source64 {
	if s.src == nil {
		s.src = rand.NewSource(s.seed).(rand.Source64)
	}
	return s.src
}

func (s *lazySource) Int63() int64   { return s.source().Int63() }
func (s *lazySource) Uint64() uint64 { return s.source().Uint64() }

// Seed reseeds lazily: the next draw starts the stream of seed.
func (s *lazySource) Seed(seed int64) { s.seed, s.src = seed, nil }
