package memsim

import "math/bits"

// maxWays caps associativity: a set's recency order packs one 4-bit way
// index per way into a single uint64.
const maxWays = 16

// Nibble-lane constants for the packed recency orders.
const (
	nibbleOnes = 0x1111111111111111
	nibbleHigh = 0x8888888888888888
)

// noLine is the MRU tag of an empty set. Lines are addresses over
// LineSize, so no line ever equals it.
const noLine = ^uint64(0)

// cache is a set-associative cache with true-LRU replacement. Only tags are
// tracked: the simulator models placement and movement, not contents.
//
// A set's valid ways are always a prefix: fill takes the first empty way
// and only reset empties ways, so a set's used count alone says which of
// its ways hold lines. Its order lists the way indices from most to least
// recently used, 4 bits per position with the MRU way in the low nibble.
// Empty ways sit at the tail of the order in index order (position p holds
// way p for p >= used), so the fill victim is the way at position used
// while the set has room and the last position once it is full: an O(1)
// pick with no scan. Callers probe a level once (lookup or contains) and
// fill only after a miss; fill itself never searches the set.
type cache struct {
	ways    int
	setMask uint64
	tags    []uint64   // sets*ways entries
	sets    []cacheSet // per-set recency state
	fresh   uint64     // the order of an empty set: position p holds way p
}

type cacheSet struct {
	mru   uint64 // the MRU way's line (noLine when empty): one compare per MRU hit
	order uint64 // way indices, MRU first
	used  int    // valid ways, a prefix of the set
}

func newCache(cfg CacheConfig) *cache {
	if !cfg.Present() {
		return nil
	}
	if cfg.Ways < 1 || cfg.Ways > maxWays {
		panic("memsim: cache associativity must be between 1 and 16 ways")
	}
	sets := cfg.Sets()
	if sets <= 0 || sets&(sets-1) != 0 {
		panic("memsim: cache set count must be a positive power of two")
	}
	c := &cache{
		ways:    cfg.Ways,
		setMask: uint64(sets - 1),
		tags:    make([]uint64, sets*cfg.Ways),
		sets:    make([]cacheSet, sets),
		fresh:   0xfedcba9876543210 & (uint64(1)<<(4*cfg.Ways) - 1),
	}
	c.reset()
	return c
}

// lookup probes for the line and refreshes LRU state on a hit. The MRU line
// is checked first, inline: repeated touches of one line (a scan's 8-byte
// loads, an interpreter's hot state) hit there and leave the order as is.
func (c *cache) lookup(line uint64) bool {
	s := &c.sets[line&c.setMask]
	return s.mru == line || c.probe(s, line)
}

// probe scans set s's valid ways for the line and moves a hit to MRU.
func (c *cache) probe(s *cacheSet, line uint64) bool {
	base := int(line&c.setMask) * c.ways
	for w, t := range c.tags[base : base+s.used] {
		if t == line {
			s.order = toFront(s.order, position(s.order, w))
			s.mru = line
			return true
		}
	}
	return false
}

// contains probes without disturbing LRU state (used by the prefetchers).
// A line the streamer already fetched is usually its set's MRU line.
func (c *cache) contains(line uint64) bool {
	si := int(line & c.setMask)
	s := &c.sets[si]
	if s.mru == line {
		return true
	}
	for _, t := range c.tags[si*c.ways : si*c.ways+s.used] {
		if t == line {
			return true
		}
	}
	return false
}

// fill inserts a line that a probe just missed, as MRU: into the first
// empty way, or over the LRU way if the set is full. It returns the evicted
// line and whether an eviction happened.
func (c *cache) fill(line uint64) (evicted uint64, didEvict bool) {
	si := int(line & c.setMask)
	s := &c.sets[si]
	p := s.used
	if p < c.ways {
		s.used++
	} else {
		p = c.ways - 1
		didEvict = true
	}
	i := si*c.ways + int(s.order>>(4*p)&0xf)
	if didEvict {
		evicted = c.tags[i]
	}
	c.tags[i] = line
	s.order = toFront(s.order, p)
	s.mru = line
	return evicted, didEvict
}

// reset empties the cache.
func (c *cache) reset() {
	for i := range c.sets {
		c.sets[i] = cacheSet{mru: noLine, order: c.fresh}
	}
}

// position returns where way w sits in a recency order. Each way index
// appears once among the set's positions (unused high nibbles are zero and
// lie above them), so w's position is the lowest zero nibble of ord^w, and
// the SWAR zero-lane test is exact for the lowest lane.
func position(ord uint64, w int) int {
	x := ord ^ uint64(w)*nibbleOnes
	return bits.TrailingZeros64((x-nibbleOnes)&^x&nibbleHigh) >> 2
}

// toFront moves the way at position p to the MRU position, shifting the
// ways ahead of it one place back.
func toFront(ord uint64, p int) uint64 {
	below := uint64(1)<<(4*p) - 1
	through := uint64(1)<<(4*p+4) - 1 // all ones when p is the 16th position
	return ord&^through | (ord&below)<<4 | ord>>(4*p)&0xf
}
