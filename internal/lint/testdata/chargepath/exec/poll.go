package exec

import "sort"

// The executor's cancellation surface: statement timeouts only fire if
// every raw-cursor loop, every loop over a materialized row set and every
// sort comparator polls the cancellation flag (rule 4). A charge alone is
// not a poll: EvalCost pays for the work but never reads the flag.

// TupleCost is the charged per-tuple checkpoint.
func (c *Ctx) TupleCost() {}

// Poll is the charge-free checkpoint.
func (c *Ctx) Poll() {}

// PollEvery is the strided checkpoint for loops over materialized buffers.
func (c *Ctx) PollEvery(i int) {}

// Operator is the Volcano interface; loops pulling from an Operator
// inherit the child's polling.
type Operator interface {
	Open() error
	Next() (Row, bool, error)
	Close() error
}

// cursor is a raw storage iterator: not an Operator, so loops driving it
// must poll themselves.
type cursor struct {
	rows []Row
}

// Next advances the cursor.
func (c *cursor) Next() bool {
	c.rows = c.rows[1:]
	return len(c.rows) > 0
}

// scanner is the heap-file scanner shape: Next yields the row itself.
type scanner struct {
	rows []Row
}

// scan opens a scanner over the heap (storage.HeapFile.Scan).
func scan(rows []Row) *scanner { return &scanner{rows: rows} }

// Next returns the next row.
func (s *scanner) Next() (Row, bool) {
	if len(s.rows) == 0 {
		return nil, false
	}
	r := s.rows[0]
	s.rows = s.rows[1:]
	return r, true
}

// scanRaw drives a raw cursor without ever charging or polling.
func scanRaw(ctx *Ctx, cur *cursor) int {
	n := 0
	for cur.Next() {
		n++
	}
	return n
}

// scanPolled is the accepted cursor shape: TupleCost charges and polls per
// tuple.
func scanPolled(ctx *Ctx, cur *cursor) int {
	n := 0
	for cur.Next() {
		ctx.TupleCost()
		n++
	}
	return n
}

// updateWhere is the DML scan loop (engine.UpdateWhereTxn) charging the
// predicate but never polling: an UPDATE over a large table cannot be
// timed out.
func updateWhere(ctx *Ctx, rows []Row, pred func(Row) bool) int {
	updated := 0
	for sc := scan(rows); ; {
		row, ok := sc.Next()
		if !ok {
			break
		}
		ctx.EvalCost(1)
		if !pred(row) {
			continue
		}
		updated++
	}
	return updated
}

// materialize ranges over a materialized row set without charging or
// polling.
func materialize(ctx *Ctx, rows []Row) int {
	n := 0
	for range rows {
		n++
	}
	return n
}

// materializePolled is the accepted shape: a charge plus the free
// checkpoint per row.
func materializePolled(ctx *Ctx, rows []Row) int {
	n := 0
	for range rows {
		ctx.Poll()
		ctx.EvalCost(1)
		n++
	}
	return n
}

// materializeStrided is the other accepted shape: the strided checkpoint,
// which reads the cancel flag only every few hundred elements.
func materializeStrided(ctx *Ctx, rows []Row) int {
	n := 0
	for i := range rows {
		ctx.PollEvery(i)
		ctx.EvalCost(1)
		n++
	}
	return n
}

// drain inherits polling from the child Operator's Next.
func drain(op Operator) (int, error) {
	n := 0
	for {
		_, ok, err := op.Next()
		if err != nil || !ok {
			return n, err
		}
		n++
	}
}

// orderRows sorts with a comparator that never polls: the O(n log n)
// comparison phase cannot be timed out.
func orderRows(ctx *Ctx, rows []Row) {
	sort.SliceStable(rows, func(a, b int) bool {
		return rows[a][0] < rows[b][0]
	})
}

// orderRowsCharged charges every comparison but still never polls.
func orderRowsCharged(ctx *Ctx, rows []Row) {
	sort.SliceStable(rows, func(a, b int) bool {
		ctx.EvalCost(1)
		return rows[a][0] < rows[b][0]
	})
}

// orderRowsPolled is the accepted comparator shape.
func orderRowsPolled(ctx *Ctx, rows []Row) {
	sort.SliceStable(rows, func(a, b int) bool {
		ctx.Poll()
		return rows[a][0] < rows[b][0]
	})
}

// header is provably bounded and carries the documented waiver.
func header(ctx *Ctx, rows []Row) int {
	n := 0
	//lint:nocharge bounded: at most two header rows
	for _, r := range rows[:2] {
		n += len(r)
	}
	return n
}
