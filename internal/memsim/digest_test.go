package memsim_test

import (
	"flag"
	"fmt"
	"hash"
	"hash/fnv"
	"math/rand"
	"sort"
	"testing"

	"energydb/internal/cpusim"
	"energydb/internal/db/engine"
	"energydb/internal/db/plan"
	"energydb/internal/memsim"
	"energydb/internal/mubench"
	"energydb/internal/perfmon"
	"energydb/internal/rapl"
	"energydb/internal/tpch"
	"energydb/internal/trace"
)

// The counter digest pins every simulated event count the reproduction
// rests on: the MBS/VMBS micro-benchmarks, the basic operations and TPC-H
// queries of all three engine profiles, the SQL planner path, a trace
// replay and a synthetic stream over every hierarchy option. A change to
// the cache, prefetcher or miss path that is meant as a pure speedup must
// leave every section's digest untouched. After an intended behaviour
// change, run `go test ./internal/memsim -run CounterDigest -digest-print`
// and paste the printed table.
var counterDigests = map[string]string{
	"engines":   "56c302e754633711",
	"mubench":   "f157477b138b015b",
	"synthetic": "d43a8086dc0efc9f",
	"trace":     "216f07f2e88c0f27",
}

var digestPrint = flag.Bool("digest-print", false, "print the counter digest table instead of checking it")

// digest folds labelled PMU deltas into one FNV-1a hash.
type digest struct{ h hash.Hash64 }

func newDigest() *digest { return &digest{h: fnv.New64a()} }

// region hashes the counter delta of fn on h, and every perfmon event
// derived from it, under label.
func (d *digest) region(label string, h *memsim.Hierarchy, fn func()) {
	before := perfmon.Take(h)
	fn()
	after := perfmon.Take(h)
	fmt.Fprintf(d.h, "%s|%+v|", label, after.DeltaSince(before))
	events := after.Events(before)
	names := make([]string, 0, len(events))
	for ev := range events {
		names = append(names, string(ev))
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(d.h, "%s=%d,", n, events[perfmon.Event(n)])
	}
}

func (d *digest) sum() string { return fmt.Sprintf("%016x", d.h.Sum64()) }

func TestCounterDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("single-goroutine simulation sweep; nothing for -short (race) runs to observe")
	}
	got := map[string]string{}
	got["mubench"] = digestMubench(t)
	got["engines"], got["trace"] = digestEngines(t)
	got["synthetic"] = digestSynthetic()

	if *digestPrint {
		names := make([]string, 0, len(got))
		for n := range got {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Printf("\t%q: %q,\n", n, got[n])
		}
		return
	}
	for name, sum := range got {
		if want := counterDigests[name]; sum != want {
			t.Errorf("counter digest %s = %s, want %s: simulated event counts drifted", name, sum, want)
		}
	}
}

// digestMubench runs every MBS and VMBS micro-benchmark the way
// calibration does (cold caches, prefetcher off) at a reduced scale.
func digestMubench(t *testing.T) string {
	t.Helper()
	m := cpusim.NewMachine(cpusim.IntelI7_4790())
	r := mubench.NewRunner(m, rapl.NewMeter(m, 1, 0))
	r.Scale = 0.02
	r.Repetitions = 1
	d := newDigest()
	for _, s := range append(mubench.MBS(), mubench.VMBS()...) {
		d.region(s.Name, m.Hier, func() {
			res := r.Run(s)
			fmt.Fprintf(d.h, "%+v|", res.Counters)
		})
	}
	return d.sum()
}

// digestEngines runs the 7 basic operations and the 22 hand-built TPC-H
// plans on each engine profile at the 10MB class, then the 22 SQL texts
// through the planner on PostgreSQL. The second result replays a captured
// Q6 onto an i7 with both prefetchers and onto the ARM board with its DTCM.
func digestEngines(t *testing.T) (engines, replay string) {
	t.Helper()
	d := newDigest()
	var captured *trace.Trace
	for _, kind := range engine.Kinds() {
		m := cpusim.NewMachine(cpusim.IntelI7_4790())
		e := engine.New(kind, m, engine.SettingBaseline)
		d.region(kind.String()+"/setup", m.Hier, func() { tpch.Setup(e, tpch.Size10MB) })
		for _, op := range tpch.BasicOps() {
			p, err := op.Build(e)
			if err != nil {
				t.Fatal(err)
			}
			d.region(kind.String()+"/"+op.Name, m.Hier, func() {
				if _, err := e.Run(p); err != nil {
					t.Fatal(err)
				}
			})
		}
		for _, q := range tpch.Queries() {
			p, err := q.Build(e)
			if err != nil {
				t.Fatal(err)
			}
			run := func() {
				if _, err := e.Run(p); err != nil {
					t.Fatal(err)
				}
			}
			if kind == engine.PostgreSQL && q.ID == 6 {
				inner := run
				run = func() { captured = trace.Capture(m, inner) }
			}
			d.region(fmt.Sprintf("%s/Q%d", kind, q.ID), m.Hier, run)
		}
		if kind == engine.PostgreSQL {
			for _, q := range tpch.SQLQueries() {
				d.region(fmt.Sprintf("%s/sql%d", kind, q.ID), m.Hier, func() {
					if _, _, err := plan.Run(e, q.Text); err != nil {
						t.Fatal(err)
					}
				})
			}
		}
	}

	r := newDigest()
	i7 := memsim.I7_4790()
	i7.Prefetch.Enabled = true
	i7.Prefetch.L1DNextLine = true
	arm := memsim.ARM1176JZFS()
	arm.TCM = &memsim.TCMConfig{DataBase: 0, DataSize: 32 << 10, LatencyCycles: arm.L1D.LatencyCycles}
	for _, cfg := range []memsim.Config{i7, arm} {
		h := memsim.New(cfg)
		r.region("replay", h, func() { trace.Replay(captured, h) })
	}
	return d.sum(), r.sum()
}

// digestSynthetic drives a seeded mixed access stream through every
// combination of profile, L2 streamer, L1D next-line prefetcher, DirectFill
// and TCM window, flushing the caches halfway through each run.
func digestSynthetic() string {
	d := newDigest()
	for _, base := range []memsim.Config{memsim.I7_4790(), memsim.ARM1176JZFS()} {
		for opt := 0; opt < 16; opt++ {
			cfg := base
			cfg.Prefetch.Enabled = opt&1 != 0
			cfg.Prefetch.L1DNextLine = opt&2 != 0
			cfg.DirectFill = opt&4 != 0
			if opt&8 != 0 {
				cfg.TCM = &memsim.TCMConfig{DataBase: 1 << 20, DataSize: 64 << 10, LatencyCycles: 2}
			}
			if cfg.Prefetch.Enabled && cfg.Prefetch.TrainLines == 0 {
				cfg.Prefetch = memsim.I7_4790().Prefetch
				cfg.Prefetch.Enabled = true
				cfg.Prefetch.L1DNextLine = opt&2 != 0
			}
			h := memsim.New(cfg)
			rng := rand.New(rand.NewSource(int64(opt) + 1))
			d.region(fmt.Sprintf("%d/%d/a", cfg.L1D.SizeBytes, opt), h, func() { syntheticStream(h, rng, 40000) })
			h.ResetCaches()
			d.region(fmt.Sprintf("%d/%d/b", cfg.L1D.SizeBytes, opt), h, func() { syntheticStream(h, rng, 40000) })
		}
	}
	return d.sum()
}

// syntheticStream mixes the access shapes the engines produce: sequential
// scans crossing pages, a hot working set, random dependent loads over a
// region far larger than the L3, stores, repeats and instruction runs.
func syntheticStream(h *memsim.Hierarchy, rng *rand.Rand, n int) {
	const span = 64 << 20
	cursor := uint64(rng.Intn(span))
	for i := 0; i < n; i++ {
		switch k := rng.Intn(16); {
		case k < 5:
			cursor += memsim.LineSize * uint64(1+rng.Intn(2))
			h.Load(cursor%span, false)
		case k < 8:
			h.Load(uint64(rng.Intn(256<<10)), rng.Intn(2) == 0)
		case k < 10:
			h.Load(uint64(rng.Intn(span)), true)
		case k < 12:
			h.Store(uint64(rng.Intn(1 << 20)))
		case k == 12:
			h.LoadRepeat(uint64(rng.Intn(2<<20)), uint64(rng.Intn(6)))
		case k == 13:
			h.StoreRepeat(uint64(rng.Intn(2<<20)), uint64(rng.Intn(6)))
		case k == 14:
			h.LoadRange(uint64(rng.Intn(span)), uint64(rng.Intn(1024)))
		default:
			h.Exec(uint64(rng.Intn(8)), memsim.InstrKind(rng.Intn(3)))
		}
	}
}
