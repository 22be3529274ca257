// Package vec implements a MonetDB/X100-style vectorized executor: operators
// exchange columnar batches of a few thousand values instead of single rows,
// so the per-tuple interpretation overhead the paper traces to the L1D energy
// bottleneck — hot-structure loads and stores, dispatch instructions, cursor
// bookkeeping — is paid once per batch per primitive rather than once per
// tuple. Batches are sized from the simulated L1D capacity so the working set
// of a kernel pipeline stays cache-resident, and every kernel charges its
// payload traffic through the same memory-hierarchy simulator as the row
// executor, so EXPLAIN ENERGY attribution and the calibrated ΔE_m pricing
// work identically for both modes.
//
// Semantics are shared with the row path by construction: kernels evaluate
// elements with exec.ApplyBin, exec.Truthy, exec.LikeMatch and exec.AggAcc —
// the same helpers the row interpreter uses — so the two paths cannot drift
// (FuzzVecExec checks this differentially).
package vec

import (
	"energydb/internal/db/catalog"
	"energydb/internal/db/exec"
	"energydb/internal/db/value"
	"energydb/internal/memsim"
)

// Batch width bounds: a batch carries between 1 and 4K values per vector.
const (
	MinBatch = 1
	MaxBatch = 4096
)

// activeVectors is the pipeline depth the batch sizing assumes stays hot: a
// kernel reads up to two input vectors and writes one output while the scan's
// source column sits behind them.
const activeVectors = 4

// valWidth is the nominal payload width of one vector element.
const valWidth = 8

// BatchSizeFor derives the batch width from the simulated L1D capacity: the
// largest power of two (within [MinBatch, MaxBatch]) such that activeVectors
// vectors of valWidth-byte values fit the L1D — X100's "fit the vector
// pipeline in cache" rule. The paper's i7-4790 (32KB L1D) yields 1024; the
// ARM1176JZF-S profile (16KB) yields 512.
func BatchSizeFor(cfg memsim.Config) int {
	budget := cfg.L1D.SizeBytes / (activeVectors * valWidth)
	n := MinBatch
	for n*2 <= budget && n*2 <= MaxBatch {
		n *= 2
	}
	return n
}

// Per-value kernel costs, charged per selected element per primitive and
// mirrored by the planner's vector-mode estimators (internal/db/plan): one
// L1D payload load per input vector element, one payload store per output
// element, and kernelInstrPerVal ALU instructions per element.
const (
	KernelLoadsPerVal  = 1
	KernelStoresPerVal = 1
	KernelInstrPerVal  = 4
)

// nullWord locates bit i in a []uint64 bitmap.
func nullWord(i int) (int, uint64) { return i >> 6, 1 << uint(i&63) }

// Vector is one column of a batch: a typed payload (int64, float64 or
// string) plus a null bitmap. Values that do not fit the payload type —
// mixed int/float results of arithmetic over nullable inputs, say — demote
// the vector to an exact row-value fallback payload, so kernels never lose
// information. Constant vectors broadcast one value to every position.
type Vector struct {
	// T is the payload type (TypeNull until the first typed Set).
	T value.Type

	i    []int64
	f    []float64
	s    []string
	null []uint64
	raw  []value.Value

	isConst bool
	cv      value.Value

	cap  int
	addr uint64
}

// NewVector allocates a vector of the given capacity, with a simulated
// payload address drawn from the arena (kernels charge their element traffic
// against it).
func NewVector(arena *memsim.Arena, t value.Type, cap int) *Vector {
	return &Vector{
		T:    t,
		cap:  cap,
		addr: arena.Alloc(uint64(cap)*16, memsim.LineSize),
	}
}

// NewConst builds a constant (broadcast) vector. It has no payload and no
// simulated address: kernels skip load charges for constant inputs, as a
// real vectorized interpreter keeps constants in registers.
func NewConst(v value.Value) *Vector {
	return &Vector{T: v.T, isConst: true, cv: v}
}

// Const reports whether the vector broadcasts a single value.
func (v *Vector) Const() bool { return v.isConst }

// Addr returns the simulated payload address.
func (v *Vector) Addr() uint64 { return v.addr }

// IsNull reports whether position i holds NULL.
func (v *Vector) IsNull(i int) bool {
	if v.isConst {
		return v.cv.IsNull()
	}
	if v.raw != nil {
		return v.raw[i].IsNull()
	}
	if v.null == nil {
		return false
	}
	w, bit := nullWord(i)
	return v.null[w]&bit != 0
}

// Get reconstructs the datum at position i.
func (v *Vector) Get(i int) value.Value {
	if v.isConst {
		return v.cv
	}
	if v.raw != nil {
		return v.raw[i]
	}
	if v.IsNull(i) {
		return value.Null()
	}
	// Payload slices allocate on first typed Set; positions read before any
	// store (demote's full sweep) count as NULL.
	switch {
	case v.T == value.TypeInt && v.i != nil:
		return value.Int(v.i[i])
	case v.T == value.TypeDate && v.i != nil:
		return value.Date(v.i[i])
	case v.T == value.TypeFloat && v.f != nil:
		return value.Float(v.f[i])
	case v.T == value.TypeStr && v.s != nil:
		return value.Str(v.s[i])
	default:
		return value.Null()
	}
}

// Set stores the datum at position i, fixing the payload type on the first
// typed store and demoting to the exact fallback payload on a type mismatch.
func (v *Vector) Set(i int, val value.Value) {
	if v.raw != nil {
		v.raw[i] = val
		return
	}
	if val.T == value.TypeNull {
		v.setNull(i)
		return
	}
	if v.T == value.TypeNull {
		v.T = val.T
	} else if v.T != val.T {
		v.demote()
		v.raw[i] = val
		return
	}
	v.clearNull(i)
	switch v.T {
	case value.TypeInt, value.TypeDate:
		if v.i == nil {
			v.i = make([]int64, v.cap)
		}
		v.i[i] = val.I
	case value.TypeFloat:
		if v.f == nil {
			v.f = make([]float64, v.cap)
		}
		v.f[i] = val.F
	case value.TypeStr:
		if v.s == nil {
			v.s = make([]string, v.cap)
		}
		v.s[i] = val.S
	}
}

func (v *Vector) setNull(i int) {
	if v.null == nil {
		v.null = make([]uint64, (v.cap+63)/64)
	}
	w, bit := nullWord(i)
	v.null[w] |= bit
}

func (v *Vector) clearNull(i int) {
	if v.null == nil {
		return
	}
	w, bit := nullWord(i)
	v.null[w] &^= bit
}

// demote switches the vector to the row-value fallback payload, preserving
// every position representable so far.
func (v *Vector) demote() {
	raw := make([]value.Value, v.cap)
	//lint:nocharge representation demotion copies within one already-allocated vector; the triggering kernel charged its payload stores
	for i := range raw {
		raw[i] = v.Get(i)
	}
	v.raw = raw
}

// Batch is one unit of exchange between vectorized operators: up to cap
// values per column, with an optional selection vector listing the positions
// that survive upstream filters (nil means all N are selected). The
// selection vector — X100's trick for filtering without compacting — lets
// downstream kernels skip dead positions without moving any payload bytes.
type Batch struct {
	Cols []*Vector
	// N is the number of materialized positions.
	N int
	// Sel lists the selected positions in ascending order; nil selects
	// all N.
	Sel []int32

	// rows backs a scan batch with its raw source rows: columns materialize
	// lazily, on first kernel touch (Col), so columns the query never
	// references move no payload bytes and charge nothing — projection
	// pushdown falls out of the representation instead of needing a planner
	// rule. nil means every vector is materialized (kernel outputs).
	rows []value.Row
	mat  []bool

	selBuf  []int32
	selAddr uint64
	cap     int
}

// NewBatch allocates a batch for the schema with vectors typed from the
// column types.
func NewBatch(arena *memsim.Arena, schema *catalog.Schema, cap int) *Batch {
	cols := make([]*Vector, len(schema.Columns))
	//lint:nocharge one-time batch allocation; payload traffic is charged when kernels fill the vectors
	for i, c := range schema.Columns {
		cols[i] = NewVector(arena, c.Type, cap)
	}
	return &Batch{
		Cols:    cols,
		selBuf:  make([]int32, 0, cap),
		selAddr: arena.Alloc(uint64(cap)*4, memsim.LineSize),
		cap:     cap,
	}
}

// Cap returns the batch capacity (positions per vector).
func (b *Batch) Cap() int { return b.cap }

// Len returns the number of selected positions.
func (b *Batch) Len() int {
	if b.Sel != nil {
		return len(b.Sel)
	}
	return b.N
}

// Pos maps a selection index to a batch position.
func (b *Batch) Pos(k int) int {
	if b.Sel != nil {
		return int(b.Sel[k])
	}
	return k
}

// SetRows points the batch at one raw source batch and marks every column
// unmaterialized. The slice is only read until the next SetRows call.
func (b *Batch) SetRows(rows []value.Row) {
	b.rows = rows
	if b.mat == nil {
		b.mat = make([]bool, len(b.Cols))
		return
	}
	//lint:nocharge per-column dirty-flag reset, no payload movement; materialization charges in Col
	for j := range b.mat {
		b.mat[j] = false
	}
}

// Col returns column j's vector, materializing it from the raw source rows
// on first touch: one vectorized materialization primitive — a batch
// dispatch, one move instruction and one payload store per value. The loop
// covers every source position (not just selected ones), so a column's
// vector is valid under any later selection narrowing.
func (b *Batch) Col(ctx *exec.Ctx, j int) *Vector {
	v := b.Cols[j]
	if b.rows == nil || b.mat[j] {
		return v
	}
	b.mat[j] = true
	ctx.TupleCost()
	for i, row := range b.rows {
		if row == nil {
			// Snapshot-invisible hole: never selected, but the vector
			// position must hold a defined value.
			v.Set(i, value.Null())
			continue
		}
		v.Set(i, row[j])
	}
	h := ctx.M.Hier
	h.Exec(uint64(len(b.rows)), memsim.InstrAdd)
	h.StoreRepeat(v.addr, uint64(len(b.rows))*KernelStoresPerVal)
	return v
}

// Row materializes the selected position k into dst (which must have one
// slot per column). A lazily backed batch copies straight from the source
// row — the charge-free path RowSource uses when a row-mode parent consumes
// a scan batch, mirroring the row SeqScan handing out stored rows.
func (b *Batch) Row(k int, dst value.Row) {
	i := b.Pos(k)
	if b.rows != nil {
		copy(dst, b.rows[i])
		return
	}
	//lint:nocharge deliberately charge-free materialization helper: callers charge per batch (TupleCost/LoadRange) before copying rows out
	for j, c := range b.Cols {
		dst[j] = c.Get(i)
	}
}

// narrowSel replaces the batch's selection with the positions where keep
// returns true, charging the selection-vector store. The compaction writes
// at or behind the read cursor, so reusing the buffer while iterating the
// previous selection is safe.
func (b *Batch) narrowSel(ctx *exec.Ctx, keep func(i int) bool) {
	sel := b.selBuf[:0]
	n := b.Len()
	//lint:nocharge predicate loads are charged by the calling kernel; the selection-vector store is charged below when any position survives
	for k := 0; k < n; k++ {
		i := b.Pos(k)
		if keep(i) {
			sel = append(sel, int32(i))
		}
	}
	b.Sel = sel
	b.selBuf = sel[:0]
	if len(sel) > 0 {
		ctx.M.Hier.StoreRepeat(b.selAddr, uint64(len(sel)))
	}
}
