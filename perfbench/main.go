// Command perfbench is the end-to-end benchmark for energyd. It starts the
// server in-process on loopback TCP, drives it with a closed loop of
// concurrent clients over client.Conn sessions, checks every answer, and
// prints the end-to-end metrics. With --trace 1 it also sends the same
// statements through each layer's public functions in-process, recording a
// span around every call, and prints the per-layer metrics. The last line
// of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Run it from the repository root (README.md in this directory lists the
// workloads and metrics):
//
//	bash perfbench/run.sh --workload olap-sql --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"energydb/internal/core"
)

// outDir receives the run records and span files, relative to the
// directory the benchmark runs in.
const outDir = "bench-out"

func main() {
	name := flag.String("workload", "olap-sql", "workload: olap-sql, scan-100mb or oltp-rw")
	seed := flag.Int64("seed", 1, "seed of the statement streams")
	seconds := flag.Int("seconds", 10, "nominal measured seconds; fixes the operation count")
	traced := flag.Int("trace", 0, "1 adds the traced run and prints the per-layer metrics")
	flag.Parse()
	if err := run(*name, *seed, *seconds, *traced == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// record is the run's file on disk: its setting and every metric with its
// sample count.
type record struct {
	Workload   string   `json:"workload"`
	Commit     string   `json:"commit"`
	GoVersion  string   `json:"go_version"`
	GOOS       string   `json:"goos"`
	GOARCH     string   `json:"goarch"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	NProc      int      `json:"nproc"`
	Seed       int64    `json:"seed"`
	Seconds    int      `json:"seconds"`
	Clients    int      `json:"clients"`
	Workers    int      `json:"workers"`
	Engine     string   `json:"engine"`
	Traced     bool     `json:"traced"`
	Attempted  int      `json:"attempted"`
	Failed     int      `json:"failed"`
	Errors     []string `json:"errors,omitempty"`
	Metrics    []metric `json:"metrics"`
}

func commit() string {
	rev, dirty := "unknown", ""
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch {
			case s.Key == "vcs.revision":
				rev = s.Value
			case s.Key == "vcs.modified" && s.Value == "true":
				dirty = "+dirty"
			}
		}
	}
	return rev + dirty
}

func run(name string, seed int64, seconds int, traced bool) error {
	w, err := workloadByName(name)
	if err != nil {
		return err
	}
	if seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1")
	}
	st := streams(w, seed, seconds)
	total := streamLen(st)
	ref, err := newReference(w, st)
	if err != nil {
		return err
	}
	// A slow commit still exits in time: clients stop taking operations at
	// each server's deadline, three times the nominal share, and the run
	// reports what it attempted.
	nominal := time.Duration(float64(w.ops(seconds)) / w.rate * float64(time.Second))
	budget := min(3*nominal, 90*time.Second) / servers
	res := loadResult{ledgerOK: true}
	var times [3][]float64 // setup, calibrate, load
	var r *rig
	for i := 0; i < servers; i++ {
		if r != nil {
			r.close()
		}
		if r, err = startRig(w, seed); err != nil {
			return err
		}
		times[0] = append(times[0], r.setupS)
		times[1] = append(times[1], r.calibrateS)
		times[2] = append(times[2], r.loadS)
		share := make([][]op, len(st))
		for c, s := range st {
			share[c] = s[i*len(s)/servers : (i+1)*len(s)/servers]
		}
		res.add(drive(r, w, share, ref, time.Now().Add(budget)))
	}
	if res.attempted == 0 {
		r.close()
		return fmt.Errorf("no operation attempted before the deadline")
	}
	var wireProbe []float64
	var heapMB float64
	if traced {
		wireProbe = probeWire(r)
	} else {
		ref, st = nil, nil
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		heapMB = float64(ms.HeapAlloc) / (1 << 20)
	}
	cal := r.srv.Calibration()
	r.close()

	rec := record{Workload: w.name, Commit: commit(), GoVersion: runtime.Version(),
		GOOS: runtime.GOOS, GOARCH: runtime.GOARCH, GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc: runtime.NumCPU(), Seed: seed, Seconds: seconds, Clients: clients, Workers: clients,
		Engine: w.engine + "/" + w.setting + "/" + w.class, Traced: traced}
	fmt.Printf("perfbench %s: commit %s, %s %s/%s, GOMAXPROCS %d, nproc %d, seed %d, %d clients, %d workers, engine %s\n",
		w.name, rec.Commit, rec.GoVersion, rec.GOOS, rec.GOARCH, rec.GOMAXPROCS, rec.NProc, seed,
		clients, clients, rec.Engine)
	fmt.Printf("closed loop: %d of %d operations completed in %.2f s\n", res.ops, res.attempted, res.seconds)
	if res.attempted < total {
		fmt.Printf("warning: deadline reached after %d operations\n", res.attempted)
	}
	e2e := endToEnd(res, times[0], heapMB, traced)
	errRate := float64(res.failed) / float64(res.attempted)
	fmt.Printf("error_rate = %g (%d failed of %d attempted; ledger partition ok: %v; aborts: %d)\n",
		errRate, res.failed, res.attempted, res.ledgerOK, res.aborted)
	for _, e := range res.errs {
		fmt.Println("  failure:", e)
	}
	printMetrics("end-to-end", e2e)
	rec.Metrics = e2e
	out := e2e
	if traced {
		layers, lad, err := tracePhase(w, ref, cal, st, res, times, wireProbe, seed)
		if err != nil {
			return err
		}
		lad.print(w, median(res.lat))
		printMetrics("per-layer", layers)
		rec.Metrics = append(rec.Metrics, layers...)
		out = layers
	}
	rec.Attempted, rec.Failed, rec.Errors = res.attempted, res.failed, res.errs
	if err := writeJSON(fmt.Sprintf("%s-seed%d-trace%v.json", w.name, seed, traced), rec); err != nil {
		return err
	}
	final := map[string]any{
		"correct":   res.failed == 0 && res.aborted == 0,
		"attempted": res.attempted,
		"failed":    res.failed,
	}
	mm := map[string]map[string]any{}
	for _, m := range out {
		mm[m.Name] = map[string]any{"value": m.Value, "unit": m.Unit}
	}
	final["metrics"] = mm
	b, err := json.Marshal(final)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

func streamLen(st [][]op) int {
	n := 0
	for _, s := range st {
		n += len(s)
	}
	return n
}

// tracePhase runs the traced lanes, writes their spans and derives the
// per-layer metrics.
func tracePhase(w workload, ref *reference, cal *core.Calibration, st [][]op, res loadResult, times [3][]float64,
	wireProbe []float64, seed int64) ([]metric, ladder, error) {
	lanes, err := tracedRun(ref, cal, st, w.traced, w.name != "oltp-rw", seed)
	if err != nil {
		return nil, ladder{}, err
	}
	var spans []span
	for _, l := range lanes {
		spans = append(spans, l.tr.spans...)
	}
	if err := writeJSON(fmt.Sprintf("spans-%s-seed%d.json", w.name, seed), spans); err != nil {
		return nil, ladder{}, err
	}
	layers, lad := perLayer(lanes, res, times, wireProbe)
	return layers, lad, nil
}

func printMetrics(kind string, ms []metric) {
	fmt.Printf("%s metrics:\n", kind)
	for _, m := range ms {
		fmt.Printf("  %-28s %14.6g %-6s (n=%d)\n", m.Name, m.Value, m.Unit, m.N)
	}
}

func writeJSON(file string, v any) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(outDir, file), b, 0o644)
}

// probeWire times the rpcProbe round trip from every client at once.
func probeWire(r *rig) []float64 {
	lat := make([][]float64, len(r.conns))
	var wg sync.WaitGroup
	for i, c := range r.conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range probeReps {
				t := time.Now()
				if _, err := c.Query(rpcProbe); err != nil {
					return
				}
				lat[i] = append(lat[i], float64(time.Since(t).Nanoseconds())/1e6)
			}
		}()
	}
	wg.Wait()
	var out []float64
	for _, l := range lat {
		out = append(out, l...)
	}
	return out
}
