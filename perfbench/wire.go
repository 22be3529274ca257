package main

import (
	"errors"
	"fmt"
	"math"
	"net"
	"runtime"
	"runtime/metrics"
	"sync"
	"syscall"
	"time"

	"energydb/internal/db/value"
	"energydb/internal/server"
	"energydb/internal/server/client"
)

// servers is how many fresh servers a run sets up, one after another. Each
// carries an equal share of the stream, so a run averages over independently
// built stores; setup_s and its split are the medians over the set-ups.
const servers = 3

// rig is one running server with its client connections.
type rig struct {
	srv    *server.Server
	conns  []*client.Conn
	served chan error

	calibrateS, loadS, setupS float64
}

// startRig times server.New (calibration), the first handshake (which loads
// the shared store) and a warm-up statement per client. The seed also drives
// the simulated meters' measurement noise.
func startRig(w workload, seed int64) (*rig, error) {
	t0 := time.Now()
	srv, err := server.New(server.Config{Workers: clients, Seed: seed})
	if err != nil {
		return nil, err
	}
	r := &rig{srv: srv, served: make(chan error, 1)}
	r.calibrateS = time.Since(t0).Seconds()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	addr := ln.Addr().String()
	go func() { r.served <- srv.Serve(ln) }()
	t1 := time.Now()
	for i := 0; i < clients; i++ {
		c, err := client.Dial(addr, client.Options{Engine: w.engine, Setting: w.setting, Class: w.class})
		if err != nil {
			r.close()
			return nil, err
		}
		r.conns = append(r.conns, c)
		if i == 0 {
			r.loadS = time.Since(t1).Seconds()
		}
	}
	for _, c := range r.conns {
		if _, err := c.Query(w.warmup); err != nil {
			r.close()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	r.setupS = time.Since(t0).Seconds()
	return r, nil
}

// close disconnects the clients, stops the server and waits for Serve.
func (r *rig) close() {
	for _, c := range r.conns {
		c.Close()
	}
	r.srv.Close()
	if err := <-r.served; err != nil && !errors.Is(err, server.ErrServerClosed) {
		fmt.Printf("warning: serve: %v\n", err)
	}
}

// clientLog is what one client records during the timed span.
type clientLog struct {
	lat      []float64 // ms per completed operation
	eActive  float64   // Σ EnergyReport.EActive
	attempts int
	failures int
	errs     []string
	// last committed c_acctbal per key this client updated (oltp-rw).
	last map[int]float64
}

func (l *clientLog) fail(format string, args ...any) {
	l.failures++
	if len(l.errs) < 5 {
		l.errs = append(l.errs, fmt.Sprintf(format, args...))
	}
}

// loadResult is the untraced end-to-end measurement of one run.
type loadResult struct {
	ops, attempted, failed int
	seconds                float64
	lat                    []float64
	eActive                float64
	cpuS                   float64
	allocBytes, allocs     uint64
	gcCPU, totalCPU        float64
	aborted                uint64
	errs                   []string
	ledgerOK               bool
}

var cpuMetrics = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

// drive runs the closed loop: each client sends its stream one operation at
// a time and checks every answer, until its stream ends or the deadline.
func drive(r *rig, w workload, st [][]op, ref *reference, deadline time.Time) loadResult {
	before := r.srv.SessionTotals().EActive
	abortedBefore := r.srv.TxnStats().Aborted
	// The runtime's CPU-class metrics advance only at collections, so one
	// is forced at each end of the timed span.
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	m0 := append([]metrics.Sample(nil), cpuMetrics...)
	metrics.Read(m0)
	cpu0 := cpuSeconds()

	logs := make([]clientLog, clients)
	start := time.Now()
	var wg sync.WaitGroup
	for c := range r.conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			runClient(r.conns[c], c, st[c], ref, deadline, &logs[c])
		}()
	}
	wg.Wait()
	secs := time.Since(start).Seconds()

	cpu1 := cpuSeconds()
	runtime.GC()
	m1 := append([]metrics.Sample(nil), cpuMetrics...)
	metrics.Read(m1)
	runtime.ReadMemStats(&ms1)

	res := loadResult{seconds: secs, cpuS: cpu1 - cpu0,
		allocBytes: ms1.TotalAlloc - ms0.TotalAlloc, allocs: ms1.Mallocs - ms0.Mallocs,
		gcCPU:    m1[0].Value.Float64() - m0[0].Value.Float64(),
		totalCPU: m1[1].Value.Float64() - m0[1].Value.Float64(),
	}
	for _, l := range logs {
		res.lat = append(res.lat, l.lat...)
		res.eActive += l.eActive
		res.attempted += l.attempts
		res.failed += l.failures
		res.errs = append(res.errs, l.errs...)
	}
	res.ops = len(res.lat)
	res.aborted = r.srv.TxnStats().Aborted - abortedBefore

	// Ledger partition: the statements' reports sum to the session ledgers'
	// growth over the timed span.
	delta := r.srv.SessionTotals().EActive - before
	res.ledgerOK = math.Abs(delta-res.eActive) <= 1e-9*math.Max(1, math.Abs(delta))
	if !res.ledgerOK {
		res.failed++
		res.errs = append(res.errs, fmt.Sprintf("ledger: Σ EActive %.12g J != session ledger delta %.12g J", res.eActive, delta))
	}
	if w.name == "oltp-rw" {
		for c, l := range logs {
			readBack(r.conns[c], ref, l.last, &res)
		}
	}
	return res
}

// add folds another server's share of the run into res.
func (res *loadResult) add(o loadResult) {
	res.ops += o.ops
	res.attempted += o.attempted
	res.failed += o.failed
	res.seconds += o.seconds
	res.lat = append(res.lat, o.lat...)
	res.eActive += o.eActive
	res.cpuS += o.cpuS
	res.allocBytes += o.allocBytes
	res.allocs += o.allocs
	res.gcCPU += o.gcCPU
	res.totalCPU += o.totalCPU
	res.aborted += o.aborted
	res.errs = append(res.errs, o.errs...)
	res.ledgerOK = res.ledgerOK && o.ledgerOK
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

func runClient(c *client.Conn, id int, ops []op, ref *reference, deadline time.Time, l *clientLog) {
	l.lat = make([]float64, 0, len(ops))
	l.last = make(map[int]float64)
	for i, o := range ops {
		if time.Now().After(deadline) {
			return
		}
		l.attempts++
		t := time.Now()
		rows, ej, err := send(c, o)
		ms := float64(time.Since(t).Nanoseconds()) / 1e6
		l.eActive += ej
		if err != nil {
			l.fail("client %d op %d (%.40q): %v", id, i, o.text, err)
			continue
		}
		if err := ref.check(id, o, rows, l.last); err != nil {
			l.fail("client %d op %d (%.40q): %v", id, i, o.text, err)
			continue
		}
		l.lat = append(l.lat, ms)
		if o.kind == opUpdate {
			l.last[o.ref] = o.val
		}
	}
}

// send runs one operation over the wire and returns its result rows and the
// summed EActive of its statements' energy reports.
func send(c *client.Conn, o op) ([]value.Row, float64, error) {
	if o.kind == opQuery {
		res, err := c.Query(o.text)
		if err != nil {
			return nil, 0, err
		}
		return res.Rows, res.Energy.EActive, nil
	}
	var ej float64
	var rows []value.Row
	for _, text := range []string{beginText, o.text, commitText} {
		res, err := c.Query(text)
		if err != nil {
			if _, open := c.InTxn(); open {
				if rb, rbErr := c.Query("ROLLBACK"); rbErr == nil {
					ej += rb.Energy.EActive
				}
			}
			return nil, ej, fmt.Errorf("%s: %w", text, err)
		}
		ej += res.Energy.EActive
		if text == o.text {
			rows = res.Rows
		}
	}
	return rows, ej, nil
}

// readBack checks that every key a client updated reads back its last
// committed value; a mismatch counts as a failed operation.
func readBack(c *client.Conn, ref *reference, last map[int]float64, res *loadResult) {
	for k, v := range last {
		got, err := c.Query(pointRead(k))
		switch {
		case err != nil:
			res.failed++
			res.errs = append(res.errs, fmt.Sprintf("read-back key %d: %v", k, err))
		case len(got.Rows) != 1 || got.Rows[0][1].AsFloat() != v || got.Rows[0][0].S != ref.names[k]:
			res.failed++
			res.errs = append(res.errs, fmt.Sprintf("read-back key %d: got %v, want c_acctbal %v", k, got.Rows, v))
		}
	}
}
