package memsim

import (
	"math/rand"
	"testing"
)

// refCache is the reference true-LRU cache the packed-order cache must
// match event for event: one timestamp per way, a valid bit per way, and a
// fill that scans the set for the first empty way or the oldest timestamp.
type refCache struct {
	ways     int
	setMask  uint64
	tags     []uint64
	valid    []bool
	lastUsed []uint64
	tick     uint64
}

func newRefCache(cfg CacheConfig) *refCache {
	sets := cfg.Sets()
	n := sets * cfg.Ways
	return &refCache{
		ways:     cfg.Ways,
		setMask:  uint64(sets - 1),
		tags:     make([]uint64, n),
		valid:    make([]bool, n),
		lastUsed: make([]uint64, n),
	}
}

func (c *refCache) lookup(line uint64) bool {
	set := int(line&c.setMask) * c.ways
	for i := set; i < set+c.ways; i++ {
		if c.valid[i] && c.tags[i] == line {
			c.tick++
			c.lastUsed[i] = c.tick
			return true
		}
	}
	return false
}

func (c *refCache) contains(line uint64) bool {
	set := int(line&c.setMask) * c.ways
	for i := set; i < set+c.ways; i++ {
		if c.valid[i] && c.tags[i] == line {
			return true
		}
	}
	return false
}

func (c *refCache) fill(line uint64) (evicted uint64, didEvict bool) {
	set := int(line&c.setMask) * c.ways
	victim := set
	for i := set; i < set+c.ways; i++ {
		if !c.valid[i] {
			victim = i
			didEvict = false
			goto place
		}
		if c.lastUsed[i] < c.lastUsed[victim] {
			victim = i
		}
	}
	evicted = c.tags[victim]
	didEvict = true
place:
	c.tick++
	c.tags[victim] = line
	c.valid[victim] = true
	c.lastUsed[victim] = c.tick
	return evicted, didEvict
}

func (c *refCache) reset() {
	for i := range c.valid {
		c.valid[i] = false
	}
	c.tick = 0
}

// TestCacheMatchesLRUOracle drives the cache and the reference with the
// same seeded line streams — probes, prefetch-style contains checks,
// fills after misses and occasional flushes — and requires identical hits
// and identical victims on every operation, at every associativity the
// packed order supports.
func TestCacheMatchesLRUOracle(t *testing.T) {
	for _, ways := range []int{1, 2, 4, 8, 16} {
		for _, sets := range []int{1, 4} {
			cfg := CacheConfig{SizeBytes: sets * ways * LineSize, Ways: ways, LatencyCycles: 1}
			for seed := int64(1); seed <= 3; seed++ {
				checkAgainstOracle(t, cfg, seed, 20000)
			}
		}
	}
}

func checkAgainstOracle(t *testing.T, cfg CacheConfig, seed int64, ops int) {
	t.Helper()
	got, want := newCache(cfg), newRefCache(cfg)
	rng := rand.New(rand.NewSource(seed))
	// A universe a little larger than the cache keeps hits and evictions
	// both frequent; a hot subset gives the MRU path repeated hits.
	universe := cfg.Sets() * cfg.Ways * 3 / 2
	for op := 0; op < ops; op++ {
		line := uint64(rng.Intn(universe + 1))
		if rng.Intn(4) == 0 {
			line = uint64(rng.Intn(cfg.Ways + 1))
		}
		switch k := rng.Intn(100); {
		case k == 0:
			got.reset()
			want.reset()
		case k < 15:
			if g, w := got.contains(line), want.contains(line); g != w {
				t.Fatalf("%+v seed %d op %d: contains(%d) = %v, oracle %v", cfg, seed, op, line, g, w)
			}
		default:
			g, w := got.lookup(line), want.lookup(line)
			if g != w {
				t.Fatalf("%+v seed %d op %d: lookup(%d) = %v, oracle %v", cfg, seed, op, line, g, w)
			}
			if g {
				break
			}
			ge, gd := got.fill(line)
			we, wd := want.fill(line)
			if ge != we || gd != wd {
				t.Fatalf("%+v seed %d op %d: fill(%d) evicted (%d, %v), oracle (%d, %v)",
					cfg, seed, op, line, ge, gd, we, wd)
			}
		}
		checkSetInvariants(t, got, want)
	}
}

// checkSetInvariants asserts the layout fill relies on: the oracle's valid
// ways form a prefix of each set whose length is the cache's used count,
// each recency order is a permutation of the set's ways whose empty tail
// is in index order, and the cached MRU line is the MRU way's tag.
func checkSetInvariants(t *testing.T, got *cache, want *refCache) {
	t.Helper()
	for s, set := range got.sets {
		n := set.used
		for w := 0; w < got.ways; w++ {
			if want.valid[s*got.ways+w] != (w < n) {
				t.Fatalf("set %d: oracle valid bits are not the prefix of length %d", s, n)
			}
		}
		var seen uint32
		for p := 0; p < got.ways; p++ {
			w := int(set.order >> (4 * p) & 0xf)
			if w >= got.ways || seen&(1<<w) != 0 {
				t.Fatalf("set %d: order %#x is not a permutation of %d ways", s, set.order, got.ways)
			}
			seen |= 1 << w
			if p >= n && w != p {
				t.Fatalf("set %d: empty position %d holds way %d (order %#x)", s, p, w, set.order)
			}
		}
		mru := noLine
		if n > 0 {
			mru = got.tags[s*got.ways+int(set.order&0xf)]
		}
		if set.mru != mru {
			t.Fatalf("set %d: cached MRU line %d, MRU way holds %d", s, set.mru, mru)
		}
	}
}

func TestNewCacheRejectsUnsupportedWays(t *testing.T) {
	for _, ways := range []int{0, 17, 32} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("newCache accepted %d ways", ways)
				}
			}()
			newCache(CacheConfig{SizeBytes: 64 * LineSize, Ways: ways, LatencyCycles: 1})
		}()
	}
}
