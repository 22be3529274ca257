package vec

import (
	"energydb/internal/db/catalog"
	"energydb/internal/db/exec"
	"energydb/internal/db/value"
	"energydb/internal/memsim"
)

// hashEntryBytes is the simulated size of one hash-table bucket entry,
// matching the row executor's bucket geometry so the two modes probe the
// same simulated table shape.
const hashEntryBytes = 16

// HashJoin is the batch-at-a-time equijoin: the build side is drained into
// a row buffer and hashed in batch-width chunks (one dispatch per chunk
// instead of per row), then each probe batch runs one key-hash kernel and
// one probe pass, and matches are gathered into an output batch charged one
// gather dispatch per batch plus two block row-copies per match, backed
// lazily by the assembled rows (like the sort's emit), so a parent kernel
// pays materialization only for the columns it actually touches.
//
// The simulated traffic keeps the row join's shape where the hardware would
// not change: bucket probes and chain walks stay dependent loads into a
// table usually larger than L1D. What vectorization removes is the per-tuple
// interpretation — the dispatch, the probe-row clone, the per-match output
// copy — which is exactly the L1D/Reg2L1D component the paper's micro
// analysis prices.
//
// NULL join keys never match (including NULL = NULL): build rows with a
// NULL key are never inserted and probe elements with a NULL key are never
// probed, the same semantics as the row HashJoin.
type HashJoin struct {
	Ctx      *exec.Ctx
	Build    Operator
	Probe    Operator
	BuildKey []int
	ProbeKey []int
	// Residual is an optional non-equi predicate over the joined row,
	// evaluated vectorized over the gathered output batch.
	Residual exec.Expr
	// BatchSize overrides the L1D-derived build-chunk and output-batch
	// width (benchmarks sweep it); 0 picks BatchSizeFor.
	BatchSize int

	schema    *catalog.Schema
	buildRows []value.Row
	table     map[value.Key][]int32
	tableBase uint64
	tableSize uint64
	buildBase uint64
	rowBase   uint64 // scratch address of the assembled-row output buffer

	out   *Batch
	pairP []int32 // per output position: probe batch position
	pairB []int32 // per output position: build row index

	probe   *Batch
	keys    []value.Key
	keyOK   []bool
	pk      int // next selection index within the probe batch
	curK    int // selection index whose bucket chain is being drained
	matches []int32
	mi      int

	p       *pool
	keyCols []*Vector
	scratch []value.Value
	rowBuf  []value.Row // reused backing rows for the lazily backed output
}

// Schema implements Operator (probe columns first, like the row join).
func (j *HashJoin) Schema() *catalog.Schema {
	if j.schema == nil {
		j.schema = j.Probe.Schema().Concat(j.Build.Schema())
	}
	return j.schema
}

// Open implements Operator: drains the build side batch-at-a-time into a
// row buffer, then hashes the buffer in batch-width chunks.
func (j *HashJoin) Open() error {
	if err := j.Build.Open(); err != nil {
		return err
	}
	h := j.Ctx.M.Hier
	ncols := len(j.Build.Schema().Columns)
	var rows []value.Row
	for {
		b, err := j.Build.Next()
		if err != nil {
			j.Build.Close()
			return err
		}
		if b == nil {
			break
		}
		j.Ctx.Poll()
		n := b.Len()
		if n == 0 {
			continue
		}
		// One collect dispatch per batch; the copy into the build buffer is
		// charged once the buffer address exists (below).
		j.Ctx.TupleCost()
		for k := 0; k < n; k++ {
			dst := make(value.Row, ncols)
			b.Row(k, dst)
			rows = append(rows, dst)
		}
	}
	if err := j.Build.Close(); err != nil {
		return err
	}
	j.buildRows = rows

	width := j.Build.Schema().RowWidth()
	if width <= 0 {
		width = 8
	}
	rowLines := uint64((width + 63) / 64)
	bufBytes := uint64(len(rows)) * uint64(width)
	if bufBytes == 0 {
		bufBytes = memsim.LineSize
	}
	j.buildBase = j.Ctx.Arena.Alloc(bufBytes, memsim.LineSize)
	j.tableSize = uint64(len(rows)+1) * hashEntryBytes * 2
	j.tableBase = j.Ctx.Arena.Alloc(j.tableSize, memsim.PageSize)
	j.table = make(map[value.Key][]int32, len(rows))

	chunk := j.BatchSize
	if chunk <= 0 {
		chunk = BatchSizeFor(j.Ctx.M.Profile.Mem)
	}
	if chunk > MaxBatch {
		chunk = MaxBatch
	}
	scratch := make([]value.Value, len(j.BuildKey))
	for lo := 0; lo < len(rows); lo += chunk {
		hi := lo + chunk
		if hi > len(rows) {
			hi = len(rows)
		}
		// Batch-granularity cancellation plus one build-kernel dispatch per
		// chunk: hash arithmetic, the buffer copy, and the key loads are
		// charged in bulk; bucket accesses stay per-row dependent loads.
		j.Ctx.PollEvery(lo)
		j.Ctx.TupleCost()
		n := uint64(hi - lo)
		h.StoreRepeat(j.buildBase+uint64(lo)*uint64(width), n*rowLines)
		h.LoadRepeat(j.buildBase+uint64(lo)*uint64(width), n)
		h.Exec(3*n, memsim.InstrAdd)
		for i, r := range rows[lo:hi] {
			null := false
			for c, ci := range j.BuildKey {
				if r[ci].IsNull() {
					null = true
					break
				}
				scratch[c] = r[ci]
			}
			if null {
				continue
			}
			key := value.MakeKey(scratch...)
			j.table[key] = append(j.table[key], int32(lo+i))
			slot := j.tableBase + uint64(lo+i)*hashEntryBytes*2%j.tableSize
			h.Load(slot, true)
			h.Store(slot)
		}
	}

	j.out = NewBatch(j.Ctx.Arena, j.Schema(), chunk)
	outWidth := uint64(j.Schema().RowWidth())
	if outWidth == 0 {
		outWidth = 8
	}
	outLines := (outWidth + 63) / 64
	j.rowBase = j.Ctx.Arena.Alloc(uint64(chunk)*outLines*memsim.LineSize, memsim.LineSize)
	j.rowBuf = make([]value.Row, chunk)
	for i := range j.rowBuf { //lint:nocharge one-time output-buffer allocation; emitted rows are charged per batch in gather
		j.rowBuf[i] = make(value.Row, len(j.Schema().Columns))
	}
	j.p = newPool(j.Ctx, chunk)
	j.keyCols = make([]*Vector, len(j.ProbeKey))
	j.scratch = make([]value.Value, len(j.ProbeKey))
	j.probe = nil
	j.pk = 0
	j.matches = nil
	j.mi = 0
	return j.Probe.Open()
}

// probeKeys is the vectorized key-hash kernel: one dispatch per probe
// batch, bulk key-column loads and hash arithmetic, then a dependent
// bucket-head load per non-NULL key element.
func (j *HashJoin) probeKeys(b *Batch) {
	n := b.Len()
	j.Ctx.TupleCost()
	h := j.Ctx.M.Hier
	for i, c := range j.ProbeKey {
		j.keyCols[i] = b.Col(j.Ctx, c)
	}
	for _, v := range j.keyCols {
		if !v.Const() {
			h.LoadRepeat(v.addr, uint64(n)*KernelLoadsPerVal)
		}
	}
	h.Exec(uint64(2*n), memsim.InstrAdd)
	j.keys = j.keys[:0]
	j.keyOK = j.keyOK[:0]
	for k := 0; k < n; k++ {
		i := b.Pos(k)
		null := false
		for c, v := range j.keyCols {
			if v.IsNull(i) {
				null = true
				break
			}
			j.scratch[c] = v.Get(i)
		}
		if null {
			j.keys = append(j.keys, value.Key{})
			j.keyOK = append(j.keyOK, false)
			continue
		}
		key := value.MakeKey(j.scratch...)
		h.Load(j.tableBase+key.Hash()%j.tableSize, true)
		j.keys = append(j.keys, key)
		j.keyOK = append(j.keyOK, true)
	}
}

// Next implements Operator: fills one output batch of matches. The probe
// cursor (batch, element, bucket chain position) persists across calls, so
// a bucket chain longer than the output batch resumes where it stopped.
func (j *HashJoin) Next() (*Batch, error) {
	out := j.out
	capN := out.Cap()
	h := j.Ctx.M.Hier
	j.pairP = j.pairP[:0]
	j.pairB = j.pairB[:0]
	for {
		// Drain the current bucket chain: each entry is a pointer chase,
		// exactly as the row join walks it.
		//lint:nocharge dispatch is charged per probe batch (probeKeys) and per emitted batch (gather); the chain walk itself charges a dependent load each hop
		for j.mi < len(j.matches) && len(j.pairP) < capN {
			h.Load(j.tableBase+uint64(j.mi+1)*hashEntryBytes%j.tableSize, true)
			j.pairP = append(j.pairP, int32(j.curK))
			j.pairB = append(j.pairB, j.matches[j.mi])
			j.mi++
		}
		if len(j.pairP) == capN {
			break
		}
		if j.probe != nil && j.pk < j.probe.Len() {
			k := j.pk
			j.pk++
			if !j.keyOK[k] {
				continue
			}
			j.curK = k
			j.matches = j.table[j.keys[k]]
			j.mi = 0
			continue
		}
		// The current probe batch is exhausted. Emit pending pairs before
		// pulling the next batch — gather still reads this batch's vectors.
		if len(j.pairP) > 0 && j.probe != nil {
			break
		}
		b, err := j.Probe.Next()
		if err != nil {
			return nil, err
		}
		if b == nil {
			j.probe = nil
			break
		}
		j.Ctx.Poll()
		j.probe = b //lint:poolescape held only until the next Probe.Next pull; every row is gathered out before re-pulling
		j.pk = 0
		if b.Len() == 0 {
			continue
		}
		j.probeKeys(b)
	}
	if len(j.pairP) == 0 {
		return nil, nil
	}
	j.gather(out)
	if j.Residual != nil {
		j.p.reset()
		pv := evalVec(j.Ctx, j.p, j.Residual, out)
		applyPred(j.Ctx, pv, out)
	}
	return out, nil
}

// gather emits the matched pairs as an output batch backed lazily by the
// assembled rows. The charge is one gather dispatch per batch plus the real
// row assembly — two block copies per pair: the probe row out of the
// (cache-hot, just-produced) probe batch and the build row out of the build
// buffer, whose scattered first-line access keeps real buffer addresses so
// the simulator sees the table-sized working set. No per-column vector
// traffic happens here: the output stays rows-backed, and a parent kernel
// pays materialization (Batch.Col) only for the columns it actually touches
// — the consumer's demand, not the join's supply — so unreferenced columns
// of wide rows move nothing beyond the block copy.
func (j *HashJoin) gather(out *Batch) {
	n := uint64(len(j.pairP))
	h := j.Ctx.M.Hier
	np := len(j.Probe.Schema().Columns)
	width := uint64(j.Build.Schema().RowWidth())
	if width == 0 {
		width = 8
	}
	buildLines := (width + 63) / 64
	probeWidth := uint64(j.Probe.Schema().RowWidth())
	if probeWidth == 0 {
		probeWidth = 8
	}
	probeLines := (probeWidth + 63) / 64
	bufBytes := uint64(len(j.buildRows)) * width
	if bufBytes == 0 {
		bufBytes = memsim.LineSize
	}
	j.Ctx.TupleCost()
	for _, bi := range j.pairB {
		// Dependent first-line load of the matched build row at its real
		// buffer offset; trailing lines of the row ride the open line(s).
		h.Load(j.buildBase+uint64(bi)*width%bufBytes, true)
	}
	h.LoadRepeat(j.rowBase, n*(buildLines-1))
	h.LoadRepeat(j.rowBase, n*probeLines)
	h.StoreRepeat(j.rowBase, n*(probeLines+buildLines))
	h.Exec(2*n, memsim.InstrAdd)
	for i := range j.pairP {
		dst := j.rowBuf[i]
		j.probe.Row(int(j.pairP[i]), dst[:np])
		copy(dst[np:], j.buildRows[j.pairB[i]])
	}
	out.N = len(j.pairP)
	out.Sel = nil
	out.SetRows(j.rowBuf[:len(j.pairP)])
}

// Close implements Operator.
func (j *HashJoin) Close() error {
	j.table = nil
	j.buildRows = nil
	return j.Probe.Close()
}
