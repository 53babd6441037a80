package fault

// Deterministic keyed uniform draws. Each fault decision hashes
// (seed, class, a, b) through splitmix64 instead of consuming a shared
// math/rand stream, so the draw for a given opportunity is independent
// of every other draw: two runs of the same task set see identical
// overrun and overload sequences regardless of which other draws the
// policy under test happened to trigger in between.

// splitmix64 is the finalizer of Steele et al.'s SplitMix64 generator —
// a strong 64-bit mixing function.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// u01 returns a uniform draw in [0, 1) keyed by (seed, class, a, b).
func u01(seed int64, class Kind, a, b int) float64 {
	h := splitmix64(uint64(seed))
	h = splitmix64(h ^ uint64(class)*0xA24BAED4963EE407)
	h = splitmix64(h ^ uint64(int64(a))*0x9FB21C651E98DF25)
	h = splitmix64(h ^ uint64(int64(b))*0xD6E8FEB86659FD93)
	// 53 high bits -> [0, 1) double.
	return float64(h>>11) / (1 << 53)
}
