package vec

// The vectorized executor polls at batch granularity instead of per tuple:
// a raw batch cursor (NextBatch) must poll itself, while a bounded
// per-batch loop is covered by a checkpoint on every path from its
// per-batch anchor.

// scanner is a raw batch cursor (the storage batch scanner's shape): not an
// Operator, so loops driving it must poll themselves.
type scanner struct {
	n int
}

// NextBatch returns the next bounded slice of rows.
func (s *scanner) NextBatch() ([]Row, bool) {
	s.n--
	return nil, s.n >= 0
}

// materializeUnpolled drives the batch cursor and materializes every batch
// without a single charge or checkpoint: the uncancellable vectorized
// kernel.
func materializeUnpolled(ctx *Ctx, s *scanner) int {
	n := 0
	for {
		rows, ok := s.NextBatch()
		if !ok {
			return n
		}
		for range rows {
			n++
		}
	}
}

// materializePolled is the accepted vectorized shape: one free checkpoint
// per batch plus a charged per-primitive dispatch; the inner loop is
// bounded by the batch width and covered by the per-batch anchor.
func materializePolled(ctx *Ctx, s *scanner) int {
	n := 0
	for {
		ctx.Poll()
		rows, ok := s.NextBatch()
		if !ok {
			return n
		}
		ctx.TupleCost()
		for range rows {
			n++
		}
	}
}

// drain pulls from the vectorized Operator paying one collect dispatch per
// batch, as the hash-join build drain does: accepted.
func drain(ctx *Ctx, op Operator) (int, error) {
	n := 0
	for {
		b, err := op.Next()
		if err != nil || b == nil {
			return n, err
		}
		ctx.TupleCost()
		n += b.Len()
	}
}

// buildChunked is the hash-join build / sort-extraction kernel shape: a
// materialized buffer walked in batch-width chunks, ranging over the
// bounded sub-slice rows[lo:hi], with a PollEvery checkpoint and one
// kernel dispatch at the head of each chunk. Accepted: the uncancellable
// stretch is one chunk, and the dispatch pays for it.
func buildChunked(ctx *Ctx, rows []Row, chunk int) int {
	n := 0
	for lo := 0; lo < len(rows); lo += chunk {
		hi := lo + chunk
		if hi > len(rows) {
			hi = len(rows)
		}
		ctx.PollEvery(lo)
		ctx.TupleCost()
		for range rows[lo:hi] {
			n++
		}
	}
	return n
}

// buildChunkedUnpolled walks the same chunked shape without any charge or
// checkpoint: still a finding — chunking alone does not make the loop
// cancellable or paid for.
func buildChunkedUnpolled(rows []Row, chunk int) int {
	n := 0
	for lo := 0; lo < len(rows); lo += chunk {
		hi := lo + chunk
		if hi > len(rows) {
			hi = len(rows)
		}
		for range rows[lo:hi] {
			n++
		}
	}
	return n
}

// allocTypo carries a misspelt waiver key: the loop is still reported, and
// so is the waiver that suppresses nothing.
func allocTypo(n int) []*Vector {
	out := make([]*Vector, n)
	//lint:nocahrge one-time allocation, no payload movement
	for i := range out {
		out[i] = &Vector{}
	}
	return out
}
