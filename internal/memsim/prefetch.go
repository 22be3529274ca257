package memsim

// prefetcher models the L2 streamer hardware prefetcher of the i7-4790. It
// tracks per-4KB-page access streams; once a stream has made TrainLines
// sequential line accesses it prefetches Degree lines ahead, filling the
// first L2Share of them into L2 (the paper's "L2 prefetching", data moving
// L3 -> L2) and the remainder into L3 only ("L3 prefetching", data moving
// DRAM -> L3). Prefetches never cross a page boundary, matching the real
// streamer's behaviour.
type prefetcher struct {
	cfg     PrefetchConfig
	streams []stream
	clock   uint64
	// last is the stream find or allocate returned most recently. A
	// stream's page is unique in the table, so checking it first is exact.
	last int
}

type stream struct {
	page     uint64
	lastLine uint64
	runLen   int
	lastUsed uint64
	valid    bool
}

func newPrefetcher(cfg PrefetchConfig) *prefetcher {
	if cfg.Streams <= 0 {
		cfg.Streams = 16
	}
	if cfg.TrainLines <= 0 {
		cfg.TrainLines = 2
	}
	if cfg.Degree <= 0 {
		cfg.Degree = 4
	}
	if cfg.L2Share < 0 || cfg.L2Share > cfg.Degree {
		cfg.L2Share = cfg.Degree / 2
	}
	return &prefetcher{cfg: cfg, streams: make([]stream, cfg.Streams)}
}

func (p *prefetcher) reset() {
	for i := range p.streams {
		p.streams[i] = stream{}
	}
	p.clock = 0
}

const linesPerPage = PageSize / LineSize

// observe feeds one demand line access into the stream table and issues
// prefetches into the hierarchy when a stream is trained.
func (p *prefetcher) observe(h *Hierarchy, line uint64) {
	p.clock++
	page := line / linesPerPage
	s := p.find(page)
	if s == nil {
		s = p.allocate(page)
		s.lastLine = line
		s.runLen = 1
		s.lastUsed = p.clock
		return
	}
	s.lastUsed = p.clock
	switch {
	case line == s.lastLine+1:
		s.runLen++
	case line == s.lastLine:
		// Repeated access to the same line keeps the stream alive
		// without advancing it.
		return
	default:
		s.runLen = 1
	}
	s.lastLine = line
	if s.runLen < p.cfg.TrainLines {
		return
	}
	p.issue(h, page, line)
}

// issue prefetches Degree lines ahead of line, staying within the page.
func (p *prefetcher) issue(h *Hierarchy, page, line uint64) {
	pageEnd := (page + 1) * linesPerPage
	for i := 1; i <= p.cfg.Degree; i++ {
		target := line + uint64(i)
		if target >= pageEnd {
			return
		}
		intoL2 := i <= p.cfg.L2Share
		p.fetchLine(h, target, intoL2)
	}
}

// fetchLine brings one prefetched line into L2 (and L3, keeping inclusion)
// or into L3 only. Lines already present at the target level cost nothing:
// the streamer checks before issuing.
func (p *prefetcher) fetchLine(h *Hierarchy, line uint64, intoL2 bool) {
	if intoL2 {
		if h.l2.contains(line) {
			return
		}
		if h.l3 != nil && !h.l3.contains(line) {
			// The line must first be brought from DRAM into L3.
			h.l3.fill(line)
			h.ctr.PrefetchL3++
		}
		h.l2.fill(line)
		h.ctr.PrefetchL2++
		return
	}
	if h.l3 == nil {
		// No L3: degrade to an L2 prefetch from DRAM.
		if !h.l2.contains(line) {
			h.l2.fill(line)
			h.ctr.PrefetchL2++
		}
		return
	}
	if !h.l3.contains(line) {
		h.l3.fill(line)
		h.ctr.PrefetchL3++
	}
}

func (p *prefetcher) find(page uint64) *stream {
	if s := &p.streams[p.last]; s.valid && s.page == page {
		return s
	}
	for i := range p.streams {
		if p.streams[i].valid && p.streams[i].page == page {
			p.last = i
			return &p.streams[i]
		}
	}
	return nil
}

func (p *prefetcher) allocate(page uint64) *stream {
	victim := 0
	for i := range p.streams {
		if !p.streams[i].valid {
			victim = i
			break
		}
		if p.streams[i].lastUsed < p.streams[victim].lastUsed {
			victim = i
		}
	}
	p.streams[victim] = stream{page: page, valid: true}
	p.last = victim
	return &p.streams[victim]
}
