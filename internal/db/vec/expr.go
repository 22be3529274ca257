package vec

import (
	"energydb/internal/db/exec"
	"energydb/internal/db/value"
	"energydb/internal/memsim"
)

// pool hands out scratch vectors for expression temporaries, reused across
// batches: reset rewinds the pool at each batch boundary and get returns the
// next scratch vector, allocating (Go slice + simulated address) only on
// first use. Evaluation order is deterministic, so each expression node sees
// the same scratch vector every batch.
type pool struct {
	ctx  *exec.Ctx
	cap  int
	vecs []*Vector
	next int
}

func newPool(ctx *exec.Ctx, cap int) *pool {
	return &pool{ctx: ctx, cap: cap}
}

func (p *pool) reset() { p.next = 0 }

func (p *pool) get() *Vector {
	if p.next == len(p.vecs) {
		p.vecs = append(p.vecs, NewVector(p.ctx.Arena, value.TypeNull, p.cap))
	}
	v := p.vecs[p.next]
	p.next++
	return v
}

// Supported reports whether the expression can be compiled to vectorized
// kernels. The planner only chooses vector mode for supported trees; an
// unsupported node reaching evalVec anyway falls back to exact row-at-a-time
// evaluation inside the kernel.
func Supported(e exec.Expr) bool {
	switch t := e.(type) {
	case exec.Col, exec.Const:
		return true
	case exec.BinOp:
		return Supported(t.L) && Supported(t.R)
	case exec.Not:
		return Supported(t.E)
	case exec.Like:
		return Supported(t.E)
	case exec.InList:
		return Supported(t.E)
	default:
		return false
	}
}

// chargeKernel charges one vectorized primitive over n selected elements:
// a single per-batch dispatch (one tuple's worth of interpretation overhead,
// via TupleCost — which doubles as the batch-granular cancellation
// checkpoint chargepath's poll rule requires), one payload load per
// element per non-constant input, the ALU work, and one payload store per
// element into out.
func chargeKernel(ctx *exec.Ctx, out *Vector, n int, ins ...*Vector) {
	ctx.TupleCost()
	if n == 0 {
		return
	}
	h := ctx.M.Hier
	for _, in := range ins {
		if in != nil && !in.isConst {
			h.LoadRepeat(in.addr, uint64(n)*KernelLoadsPerVal)
		}
	}
	h.Exec(uint64(n)*KernelInstrPerVal, memsim.InstrAdd)
	if out != nil {
		h.StoreRepeat(out.addr, uint64(n)*KernelStoresPerVal)
	}
}

// evalVec evaluates the expression over the batch's selected positions.
// Column references alias the batch's vectors and constants broadcast; every
// computed node runs as one kernel — dispatch charged per batch, payload
// traffic per element — with element semantics delegated to the exact same
// helpers the row interpreter uses.
func evalVec(ctx *exec.Ctx, p *pool, e exec.Expr, b *Batch) *Vector {
	switch t := e.(type) {
	case exec.Col:
		return b.Col(ctx, t.Idx)
	case exec.Const:
		return NewConst(t.V)
	case exec.BinOp:
		l := evalVec(ctx, p, t.L, b)
		r := evalVec(ctx, p, t.R, b)
		out := p.get()
		n := b.Len()
		chargeKernel(ctx, out, n, l, r)
		for k := 0; k < n; k++ {
			i := b.Pos(k)
			out.Set(i, exec.ApplyBin(t.Op, l.Get(i), r.Get(i)))
		}
		return out
	case exec.Not:
		in := evalVec(ctx, p, t.E, b)
		out := p.get()
		n := b.Len()
		chargeKernel(ctx, out, n, in)
		for k := 0; k < n; k++ {
			i := b.Pos(k)
			out.Set(i, boolVal(!exec.Truthy(in.Get(i))))
		}
		return out
	case exec.Like:
		in := evalVec(ctx, p, t.E, b)
		out := p.get()
		n := b.Len()
		chargeKernel(ctx, out, n, in)
		for k := 0; k < n; k++ {
			i := b.Pos(k)
			out.Set(i, boolVal(exec.LikeMatch(in.Get(i).S, t.Pattern)))
		}
		return out
	case exec.InList:
		in := evalVec(ctx, p, t.E, b)
		out := p.get()
		n := b.Len()
		chargeKernel(ctx, out, n, in)
		for k := 0; k < n; k++ {
			i := b.Pos(k)
			v := in.Get(i)
			hit := false
			for _, c := range t.List {
				if value.Equal(v, c) {
					hit = true
					break
				}
			}
			out.Set(i, boolVal(hit))
		}
		return out
	default:
		// Exact fallback for expression types without a kernel: rebuild
		// each selected row and run the row interpreter's Eval, charging
		// its per-node cost so the energy model stays honest.
		out := p.get()
		n := b.Len()
		chargeKernel(ctx, out, n)
		nodes := e.Nodes()
		row := make(value.Row, len(b.Cols))
		for k := 0; k < n; k++ {
			i := b.Pos(k)
			b.Row(k, row)
			ctx.EvalCost(nodes)
			out.Set(i, e.Eval(row))
		}
		return out
	}
}

func boolVal(b bool) value.Value {
	if b {
		return value.Int(1)
	}
	return value.Int(0)
}

// applyPred narrows the batch's selection to positions where the predicate
// vector is truthy: one kernel (dispatch + predicate loads + branch
// instructions) plus the selection-vector store inside narrowSel.
func applyPred(ctx *exec.Ctx, pred *Vector, b *Batch) {
	ctx.TupleCost()
	n := b.Len()
	if n == 0 {
		return
	}
	h := ctx.M.Hier
	if !pred.isConst {
		h.LoadRepeat(pred.addr, uint64(n)*KernelLoadsPerVal)
	}
	h.Exec(uint64(n), memsim.InstrOther)
	b.narrowSel(ctx, func(i int) bool { return exec.Truthy(pred.Get(i)) })
}
