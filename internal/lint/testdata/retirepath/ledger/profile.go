package ledger

// Ledger accumulates per-session energy; its presence arms the
// measured-energy rule in scopes that never call retire themselves.
type Ledger struct {
	total float64
}

// Add retires measured energy into the ledger.
func (l *Ledger) Add(j float64) { l.total += j }

// Breakdown is a measured energy split.
type Breakdown struct {
	Total float64
}

// meter measures a region.
type meter struct{}

// Profile measures the region's energy.
func (m *meter) Profile() Breakdown {
	_ = m
	return Breakdown{}
}

// measureAndDrop profiles but never retires the measurement: the session
// ledgers no longer sum to the server total.
func measureAndDrop(m *meter) float64 {
	b := m.Profile()
	return b.Total
}

// measureAndRetire is the accepted shape: the breakdown lands in a ledger.
func measureAndRetire(m *meter, l *Ledger) {
	b := m.Profile()
	l.Add(b.Total)
}

// measureForCaller returns the Breakdown: retirement is the caller's job.
func measureForCaller(m *meter) Breakdown {
	return m.Profile()
}

// measureInto hands the breakdown to its enclosing function through a
// captured named result (the benchmark lanes' shape): retirement is the
// caller's job.
func measureInto(m *meter, run func(func())) (b Breakdown) {
	run(func() { b = m.Profile() })
	return b
}
