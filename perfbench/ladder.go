package main

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"time"

	"energydb/internal/core"
	"energydb/internal/cpusim"
	"energydb/internal/db/engine"
	"energydb/internal/db/exec"
	"energydb/internal/db/plan"
	"energydb/internal/db/sql"
	"energydb/internal/db/txn"
	"energydb/internal/db/value"
	"energydb/internal/memsim"
	"energydb/internal/rapl"
	"energydb/internal/tpch"
	"energydb/internal/trace"
)

// The traced run sends a workload's statements through each layer's public
// functions in-process, the way a server worker calls them, and records a
// span around every call. Each lane stands for one server worker: a private
// machine, meter, profiler and engine view over the reference store, driven
// by one client's stream. The lanes run concurrently, as the workers do.

// span is one timed call. Start and End are nanoseconds since the run's
// origin; ID and Parent index the lane's span list (Parent -1 for a root).
// Stmt is the operation's index in the lane's stream; probes use -1.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Lane   int    `json:"lane"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Stmt   int    `json:"stmt"`
}

// tracer keeps a lane's spans in memory. With on false it only runs the
// calls, which is the untraced pass the tracing overhead is measured on.
type tracer struct {
	origin time.Time
	lane   int
	stmt   int
	on     bool
	spans  []span
	open   []int
}

func (t *tracer) span(name string, fn func()) {
	if !t.on {
		fn()
		return
	}
	id := len(t.spans)
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{Name: name, Start: time.Since(t.origin).Nanoseconds(),
		Lane: t.lane, ID: id, Parent: parent, Stmt: t.stmt})
	t.open = append(t.open, id)
	fn()
	t.open = t.open[:len(t.open)-1]
	t.spans[id].End = time.Since(t.origin).Nanoseconds()
}

// layerOf maps a span name to the layer its self time is charged to.
var layerOf = map[string]string{
	"op":                        "other",
	"sql.ParseStatement":        "sql",
	"sql.Shorthand":             "sql",
	"plan.Prepare":              "plan",
	"tpch.QueryByID":            "plan",
	"plan.Prepared.Build":       "plan",
	"tpch.Query.Build":          "plan",
	"plan.Prepared.PredictedEJ": "plan",
	"core.Profiler.Profile":     "core",
	"exec.Collect":              "exec",
	"plan.ExecWrite":            "txn",
	"engine.Begin":              "txn",
	"engine.Commit":             "txn",
	"trace.Capture":             "capture",
	"memsim.replay":             "memsim",
}

// opStat is what the traced pass learns about one workload operation.
type opStat struct {
	kind      opKind
	layers    map[string]int64 // span name → summed duration within the op
	stmts     int              // statements sent over the wire for this op
	pred      float64          // PredictedEJ, NaN without one
	measured  float64          // Σ EActive of the profiled calls
	rows      int
	ctr       memsim.Counters // profiled counters of the query's execution
	replayNs  int64
	replayAcc uint64 // loads + stores replayed
}

type lane struct {
	id     int
	m      *cpusim.Machine
	prof   *core.Profiler
	eng    *engine.Engine
	tr     *tracer
	replay *memsim.Hierarchy

	untracedNs []int64 // per op, untraced pass
	stats      []opStat
	probeNs    []int64 // in-process rpcProbe
	profileNs  []int64 // empty Profile
	txnProbe   []opStat
	bpHits     [2]uint64 // buffer pool hits, misses over the traced pass
	err        error
}

// newLane seeds the lane's meter the way the server seeds its workers'.
func newLane(id int, seed int64, sh *engine.Shared, cal *core.Calibration, origin time.Time) *lane {
	m := cpusim.NewMachine(cpusim.IntelI7_4790())
	return &lane{
		id:     id,
		m:      m,
		prof:   core.NewProfiler(m, rapl.NewMeter(m, seed+int64(id)+1, rapl.DefaultNoise), cal),
		eng:    sh.View(m),
		tr:     &tracer{origin: origin, lane: id},
		replay: m.Hier.NewLike(),
	}
}

// profiled runs fn under the profiler inside a span named inner, as the
// server runs each statement. The lanes keep no ledger: the breakdown goes
// back to the caller.
func (l *lane) profiled(inner string, fn func()) (b core.Breakdown) {
	l.tr.span("core.Profiler.Profile", func() {
		b = l.prof.Profile(inner, func() { l.tr.span(inner, fn) })
	})
	return b
}

// add books one profiled call of the operation.
func (st *opStat) add(b core.Breakdown) {
	st.measured += b.EActive
	st.ctr = b.Counters
}

// query mirrors the server's read path: parse, plan (or the hand-built TPC-H
// plan for the \qN shorthand), then execute under the profiler. It returns
// a function that builds a fresh executor tree for the trace capture.
func (l *lane) query(text string, st *opStat) (rebuild func() (exec.Operator, error), err error) {
	st.pred = math.NaN()
	l.eng.Unbind()
	var root exec.Operator
	if strings.HasPrefix(text, `\q`) {
		var id int
		var q tpch.Query
		l.tr.span("sql.Shorthand", func() { _, err = fmt.Sscanf(text, `\q%d`, &id) })
		if err != nil {
			return nil, err
		}
		l.tr.span("tpch.QueryByID", func() { q, err = tpch.QueryByID(id) })
		if err != nil {
			return nil, err
		}
		rebuild = func() (exec.Operator, error) { return q.Build(l.eng) }
		l.tr.span("tpch.Query.Build", func() { root, err = rebuild() })
	} else {
		var stmt sql.Statement
		l.tr.span("sql.ParseStatement", func() { stmt, err = sql.ParseStatement(text) })
		if err != nil {
			return nil, err
		}
		sel, ok := stmt.(*sql.SelectStmt)
		if !ok {
			return nil, fmt.Errorf("not a SELECT: %q", text)
		}
		var p *plan.Prepared
		l.tr.span("plan.Prepare", func() { p, err = plan.Prepare(l.eng, sel) })
		if err != nil {
			return nil, err
		}
		rebuild = p.Build
		l.tr.span("plan.Prepared.Build", func() { root, err = p.Build() })
		l.tr.span("plan.Prepared.PredictedEJ", func() { st.pred = p.PredictedEJ() })
	}
	if err != nil {
		return nil, err
	}
	l.eng.Unbind()
	var rows []value.Row
	st.add(l.profiled("exec.Collect", func() { rows, err = exec.Collect(root) }))
	st.rows = len(rows)
	st.stmts = 1
	return rebuild, err
}

// update mirrors BEGIN; UPDATE; COMMIT sent as three statements.
func (l *lane) update(text string, st *opStat) error {
	parse := func(s string) (stmt sql.Statement, err error) {
		l.tr.span("sql.ParseStatement", func() { stmt, err = sql.ParseStatement(s) })
		return stmt, err
	}
	if _, err := parse(beginText); err != nil {
		return err
	}
	var tx *txn.Txn
	st.add(l.profiled("engine.Begin", func() { tx = l.eng.Begin() }))
	stmt, err := parse(text)
	if err != nil {
		return err
	}
	var n int
	l.eng.Bind(tx)
	st.add(l.profiled("plan.ExecWrite", func() { n, err = plan.ExecWrite(l.eng, tx, stmt) }))
	if err == nil && n != 1 {
		err = fmt.Errorf("update touched %d rows, want 1", n)
	}
	if err != nil {
		return errors.Join(err, l.eng.Rollback(tx))
	}
	if _, err := parse(commitText); err != nil {
		return err
	}
	l.eng.Bind(tx)
	st.add(l.profiled("engine.Commit", func() { err = l.eng.Commit(tx) }))
	st.stmts = 3
	st.ctr = memsim.Counters{}
	return err
}

func (l *lane) run(o op, st *opStat) (rebuild func() (exec.Operator, error), err error) {
	l.tr.span("op", func() {
		if o.kind == opUpdate {
			err = l.update(o.text, st)
		} else {
			rebuild, err = l.query(o.text, st)
		}
	})
	return rebuild, err
}

// capture records the query's access stream on a second execution and
// replays it twice onto a cold clone of the hierarchy, timing the warm pass.
func (l *lane) capture(rebuild func() (exec.Operator, error), st *opStat) error {
	l.tr.on = true
	defer func() { l.tr.on = false }()
	root, err := rebuild()
	if err != nil {
		return err
	}
	l.eng.Unbind()
	var tr *trace.Trace
	l.tr.span("trace.Capture", func() {
		tr = trace.Capture(l.m, func() { _, err = exec.Collect(root) })
	})
	if err != nil {
		return err
	}
	l.replay.ResetState()
	replay(tr, l.replay)
	c0 := l.replay.Counters()
	t := time.Now()
	l.tr.span("memsim.replay", func() { replay(tr, l.replay) })
	st.replayNs = time.Since(t).Nanoseconds()
	d := l.replay.Counters().Sub(c0)
	st.replayAcc = d.Loads + d.Stores
	return nil
}

// replay re-issues the captured simulator calls, as trace.Replay does,
// except that a repeat event is fused with the head access recorded just
// before it into the one LoadRepeat or StoreRepeat call the executor made.
// trace.Replay expands a repeat into single loads, work the executor never
// does, so its time would overstate the simulator's share of exec.Collect.
func replay(t *trace.Trace, h *memsim.Hierarchy) {
	ev := t.Events
	for i := 0; i < len(ev); i++ {
		e := ev[i]
		fused := i+1 < len(ev) && ev[i+1].Addr == e.Addr
		switch e.Kind {
		case memsim.AccessLoadDep:
			h.Load(e.Addr, true)
		case memsim.AccessLoadInd:
			if fused && ev[i+1].Kind == memsim.AccessLoadRepeat {
				i++
				h.LoadRepeat(e.Addr, 1+ev[i].N)
			} else {
				h.Load(e.Addr, false)
			}
		case memsim.AccessStore:
			if fused && ev[i+1].Kind == memsim.AccessStoreRepeat {
				i++
				h.StoreRepeat(e.Addr, 1+ev[i].N)
			} else {
				h.Store(e.Addr)
			}
		case memsim.AccessExecAdd:
			h.Exec(e.N, memsim.InstrAdd)
		case memsim.AccessExecNop:
			h.Exec(e.N, memsim.InstrNop)
		case memsim.AccessExecOther:
			h.Exec(e.N, memsim.InstrOther)
		default:
			// A repeat without its head: replay it the way trace.Replay does.
			trace.Replay(&trace.Trace{Events: ev[i : i+1]}, h)
		}
	}
}

// Probe sizes: enough calls for a stable median, small next to the workload.
const (
	probeReps   = 300
	profileReps = 2000
	txnProbes   = 50
)

// work runs the lane's share of the traced run: a warm-up pass over the
// stream, an untraced pass, the traced pass, a capture and replay per query,
// then the probes.
func (l *lane) work(ops []op, probeTxn bool) error {
	for pass := 0; pass < 2; pass++ {
		for _, o := range ops {
			ns, err := l.untraced(o)
			if err != nil {
				return err
			}
			if pass == 1 {
				l.untracedNs = append(l.untracedNs, ns)
			}
		}
	}
	h0, m0 := l.eng.Pool.Hits, l.eng.Pool.Misses
	rebuilds := make([]func() (exec.Operator, error), len(ops))
	for i, o := range ops {
		l.tr.stmt = i
		st, rebuild, err := l.traced(o)
		if err != nil {
			return err
		}
		l.stats = append(l.stats, st)
		rebuilds[i] = rebuild
	}
	// The lane's pool is never reset, so its counters only grow.
	l.bpHits = [2]uint64{l.eng.Pool.Hits - h0, l.eng.Pool.Misses - m0} //lint:monotonic
	// Captures run after the traced pass, so their extra executions do not
	// disturb the timings the tracing overhead is read from.
	for i, rebuild := range rebuilds {
		if rebuild != nil {
			l.tr.stmt = i
			if err := l.capture(rebuild, &l.stats[i]); err != nil {
				return err
			}
		}
	}
	l.tr.stmt = -1
	for range probeReps {
		ns, err := l.untraced(op{kind: opQuery, text: rpcProbe})
		if err != nil {
			return err
		}
		l.probeNs = append(l.probeNs, ns)
	}
	for range profileReps {
		t := time.Now()
		_ = l.profiled("empty", func() {})
		l.profileNs = append(l.profileNs, time.Since(t).Nanoseconds())
	}
	if probeTxn {
		// Read-only workloads have no transactions of their own: the txn
		// layer is timed on a probe that rewrites this lane's region key
		// with its own value.
		text := fmt.Sprintf("UPDATE region SET r_regionkey = %d WHERE r_regionkey = %d", l.id, l.id)
		for range txnProbes {
			st, _, err := l.traced(op{kind: opUpdate, text: text})
			if err != nil {
				return err
			}
			l.txnProbe = append(l.txnProbe, st)
		}
	}
	return nil
}

// untraced runs one operation without recording spans and returns its time.
func (l *lane) untraced(o op) (int64, error) {
	var st opStat
	t := time.Now()
	_, err := l.run(o, &st)
	return time.Since(t).Nanoseconds(), err
}

// traced runs one operation under span recording and sums its spans by name.
func (l *lane) traced(o op) (opStat, func() (exec.Operator, error), error) {
	st := opStat{kind: o.kind, layers: map[string]int64{}}
	first := len(l.tr.spans)
	l.tr.on = true
	rebuild, err := l.run(o, &st)
	l.tr.on = false
	for _, s := range l.tr.spans[first:] {
		st.layers[s.Name] += s.End - s.Start
	}
	return st, rebuild, err
}

// tracedRun drives one lane per client stream concurrently.
func tracedRun(ref *reference, cal *core.Calibration, st [][]op, perLane int, probeTxn bool, seed int64) ([]*lane, error) {
	origin := time.Now()
	lanes := make([]*lane, len(st))
	var wg sync.WaitGroup
	for i := range lanes {
		lanes[i] = newLane(i, seed, ref.eng.Shared(), cal, origin)
		ops := st[i][:min(perLane, len(st[i]))]
		wg.Add(1)
		go func() {
			defer wg.Done()
			lanes[i].err = lanes[i].work(ops, probeTxn)
		}()
	}
	wg.Wait()
	for _, l := range lanes {
		if l.err != nil {
			return nil, fmt.Errorf("traced lane %d: %w", l.id, l.err)
		}
	}
	return lanes, nil
}
