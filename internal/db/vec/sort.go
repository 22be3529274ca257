package vec

import (
	"sort"

	"energydb/internal/db/catalog"
	"energydb/internal/db/exec"
	"energydb/internal/db/value"
	"energydb/internal/memsim"
)

// Sort is the batch-at-a-time sort: sort keys are extracted in bulk — one
// kernel per key per input batch, through the same typed vectors every other
// kernel uses — into columnar key stores, the ordering pass produces a
// selection vector over the collected rows (the comparator keeps the row
// sort's discipline: a poll and two dependent buffer loads per comparison),
// and output batches are emitted lazily backed by the sorted run, so a
// parent kernel only materializes the columns it actually touches and no
// per-row output copy happens at all.
type Sort struct {
	Ctx   *exec.Ctx
	Child Operator
	Keys  []exec.SortKey
	// BatchSize overrides the L1D-derived output batch width (benchmarks
	// sweep it); 0 picks BatchSizeFor.
	BatchSize int

	rows    []value.Row
	keys    [][]value.Value // columnar: keys[k][i] is key k of collected row i
	idx     []int32         // ordering selection vector over rows
	base    uint64
	keyBase uint64
	pos     int
	out     *Batch
	chunk   []value.Row
	p       *pool
}

// Schema implements Operator.
func (s *Sort) Schema() *catalog.Schema { return s.Child.Schema() }

// Open implements Operator: drains the child batch-at-a-time, extracting
// key columns in bulk, then orders the collected rows.
func (s *Sort) Open() error {
	if err := s.Child.Open(); err != nil {
		return err
	}
	h := s.Ctx.M.Hier
	ncols := len(s.Child.Schema().Columns)
	width := s.BatchSize
	if width <= 0 {
		width = BatchSizeFor(s.Ctx.M.Profile.Mem)
	}
	if width > MaxBatch {
		width = MaxBatch
	}
	s.p = newPool(s.Ctx, MaxBatch)
	s.keyBase = s.Ctx.Arena.Alloc(uint64(MaxBatch)*8*uint64(len(s.Keys)+1), memsim.LineSize)
	s.rows = s.rows[:0]
	s.keys = make([][]value.Value, len(s.Keys))
	for {
		b, err := s.Child.Next()
		if err != nil {
			s.Child.Close()
			return err
		}
		if b == nil {
			break
		}
		s.Ctx.Poll()
		n := b.Len()
		if n == 0 {
			continue
		}
		// Bulk key extraction: evalVec computes each key as a typed vector
		// (columns alias the batch, computed keys run as kernels), then one
		// packing primitive per key appends it to the columnar key store.
		s.p.reset()
		for kc := range s.Keys {
			kv := evalVec(s.Ctx, s.p, s.Keys[kc].Expr, b)
			s.Ctx.TupleCost()
			if !kv.Const() {
				h.LoadRepeat(kv.addr, uint64(n)*KernelLoadsPerVal)
			}
			h.Exec(uint64(n), memsim.InstrAdd)
			h.StoreRepeat(s.keyBase, uint64(n)*KernelStoresPerVal)
			for k := 0; k < n; k++ {
				s.keys[kc] = append(s.keys[kc], kv.Get(b.Pos(k)))
			}
		}
		// Collect the rows behind the keys (one dispatch per batch; the
		// sort-buffer entry stores are charged when the buffer is sized).
		s.Ctx.TupleCost()
		for k := 0; k < n; k++ {
			dst := make(value.Row, ncols)
			b.Row(k, dst)
			s.rows = append(s.rows, dst)
		}
	}
	if err := s.Child.Close(); err != nil {
		return err
	}

	// The sort buffer: one pointer-sized entry per row, written in
	// batch-width chunks with batch-granularity cancellation.
	n := len(s.rows)
	nn := uint64(n)
	if nn == 0 {
		nn = 1
	}
	s.base = s.Ctx.Arena.Alloc(nn*16, memsim.PageSize)
	for lo := 0; lo < n; lo += width {
		hi := lo + width
		if hi > n {
			hi = n
		}
		s.Ctx.TupleCost()
		h.StoreRepeat(s.base+uint64(lo)*16, uint64(hi-lo))
	}

	// Ordering pass: identical comparator discipline to the row sort — the
	// O(n log n) comparison loop has no batch boundary, so it polls and
	// chases both row pointers itself.
	idx := make([]int32, n)
	for i := range idx {
		idx[i] = int32(i)
	}
	sort.SliceStable(idx, func(a, b int) bool {
		s.Ctx.Poll()
		h.Load(s.base+uint64(idx[a])*16%(nn*16), true)
		h.Load(s.base+uint64(idx[b])*16%(nn*16), true)
		s.Ctx.Compute(len(s.Keys))
		return s.less(int(idx[a]), int(idx[b]))
	})
	s.idx = idx
	// Final placement: the ordering selection vector is stored in one bulk
	// pass instead of a per-row store loop.
	if n > 0 {
		h.StoreRepeat(s.base, uint64(n))
	}

	s.pos = 0
	s.out = NewBatch(s.Ctx.Arena, s.Schema(), width)
	s.chunk = make([]value.Row, 0, width)
	return nil
}

func (s *Sort) less(a, b int) bool {
	for k, sk := range s.Keys {
		c := value.Compare(s.keys[k][a], s.keys[k][b])
		if c == 0 {
			continue
		}
		if sk.Desc {
			return c > 0
		}
		return c < 0
	}
	return false
}

// Next implements Operator: emits the next batch of the sorted run, lazily
// backed by the ordered rows — one dispatch and one streaming read of the
// run per batch, no per-row output copy.
func (s *Sort) Next() (*Batch, error) {
	if s.pos >= len(s.rows) {
		return nil, nil
	}
	s.Ctx.Poll()
	n := s.out.Cap()
	if rem := len(s.rows) - s.pos; rem < n {
		n = rem
	}
	s.Ctx.TupleCost()
	s.Ctx.M.Hier.LoadRange(s.base+uint64(s.pos)*16, uint64(n)*16)
	s.chunk = s.chunk[:0]
	for _, j := range s.idx[s.pos : s.pos+n] {
		s.chunk = append(s.chunk, s.rows[j])
	}
	s.out.N = n
	s.out.Sel = nil
	s.out.SetRows(s.chunk)
	s.pos += n
	return s.out, nil
}

// Close implements Operator.
func (s *Sort) Close() error {
	s.rows = nil
	s.keys = nil
	s.idx = nil
	return nil
}
