package metastore

// stableOrder returns the permutation that stably sorts keys ascending:
// keys[p[0]] <= keys[p[1]] <= ..., with equal keys in index order. It is
// the package's one sort — Jobs orders its window by pandaid with it, and
// every seal and every ranged query over a non-empty tail orders its times
// with it — so the frozen and live paths share a single ordering routine.
//
// The kernel is an LSD radix sort over the eight key bytes, least
// significant first. Flipping the sign bit maps int64 order onto uint64
// order. One counting pass histograms every byte position up front, and a
// position where all keys share the same byte is skipped: pandaids and
// virtual times leave their high bytes constant, so a typical call makes
// three (times) to five (10-digit pandaids) scatter passes. Each pass is a
// stable counting scatter, which is what makes the whole sort stable.
func stableOrder(keys []int64) []int32 {
	n := len(keys)
	perm := make([]int32, n)
	for i := range perm {
		perm[i] = int32(i)
	}
	if n < 2 {
		return perm
	}
	const flip = 1 << 63
	var counts [8][256]int
	for _, k := range keys {
		u := uint64(k) ^ flip
		for b := range counts {
			counts[b][byte(u>>(8*b))]++
		}
	}
	first := uint64(keys[0]) ^ flip
	spare := make([]int32, n)
	for b := range counts {
		c := &counts[b]
		if c[byte(first>>(8*b))] == n {
			continue // every key has this byte: the pass would be the identity
		}
		sum := 0
		for d, m := range c {
			c[d] = sum
			sum += m
		}
		shift := 8 * uint(b)
		for _, p := range perm {
			d := byte((uint64(keys[p]) ^ flip) >> shift)
			spare[c[d]] = p
			c[d]++
		}
		perm, spare = spare, perm
	}
	return perm
}
