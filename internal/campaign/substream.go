package campaign

import "math/bits"

// Scenario substreams: the only random source of scenario generation.
// A splitStream is a counter-based splitmix64 generator keyed by
// (sweep seed, scenario index): scenario i's burst and jitter draws are
// a pure function of that pair, with no sequential generator state
// shared between scenarios. Two campaign cells (planner × placement)
// built over the same seed therefore replay bit-identical failure
// draws — the common-random-numbers pairing that makes head-to-head
// deltas (Paired) low-variance — and a distributed range [lo, hi)
// needs no substream offset or skip-ahead: every process derives
// scenario i's stream from (seed, i) alone.
//
// Derivation: state₀ = mix(mix(seed) ⊕ mix(index + γ)) with γ the
// golden-ratio constant 0x9e3779b97f4a7c15 and mix the splitmix64
// finaliser; draw j returns mix(state₀ + (j+1)·γ). The seed and the
// index pass through separate mix rounds, so no linear relation between
// them aliases two streams (a key such as seed + index·c would make
// (s, i+1) replay (s+c, i)), and all 64 seed bits count. The derivation mirrors internal/sketch's compaction
// coins and is stable across Go releases.
type splitStream struct {
	state uint64
}

// newSplitStream keys a stream by (seed, index). The two inputs pass
// through separate mix rounds so adjacent indices (and adjacent seeds)
// decorrelate fully before the first draw.
func newSplitStream(seed int64, index int) *splitStream {
	s := splitMix64(uint64(seed))
	s = splitMix64(s ^ splitMix64(uint64(index)+0x9e3779b97f4a7c15))
	return &splitStream{state: s}
}

// next advances the splitmix64 counter and returns the finalised word.
func (s *splitStream) next() uint64 {
	s.state += 0x9e3779b97f4a7c15
	return splitMix64(s.state)
}

// Float64 returns a uniform draw in [0, 1) with 53 random bits.
func (s *splitStream) Float64() float64 {
	return float64(s.next()>>11) / (1 << 53)
}

// Intn returns a uniform draw in [0, n) via Lemire's multiply-shift
// reduction with a rejection pass, so the draw is exactly uniform.
func (s *splitStream) Intn(n int) int {
	if n <= 0 {
		panic("campaign: splitStream.Intn with non-positive bound")
	}
	un := uint64(n)
	hi, lo := bits.Mul64(s.next(), un)
	if lo < un {
		thresh := -un % un
		for lo < thresh {
			hi, lo = bits.Mul64(s.next(), un)
		}
	}
	return int(hi)
}

// Perm returns a uniform permutation of [0, n) (Fisher-Yates).
func (s *splitStream) Perm(n int) []int {
	p := make([]int, n)
	for i := 1; i < n; i++ {
		j := s.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// splitMix64 is the splitmix64 finaliser (same constants as
// internal/sketch's coin mixer).
func splitMix64(z uint64) uint64 {
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}
