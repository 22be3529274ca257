package main

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"energydb/internal/memsim"
)

// metric is one reported number with its sample count.
type metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
}

// quantile interpolates linearly between closest ranks.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func nsToUnit(ns []int64, div float64) []float64 {
	out := make([]float64, len(ns))
	for i, v := range ns {
		out[i] = float64(v) / div
	}
	return out
}

// endToEnd derives the end-to-end metrics of the untraced run. A traced run
// keeps the reference store alive for its lanes, so it reports no heap_mb.
func endToEnd(res loadResult, setupS []float64, heapMB float64, traced bool) []metric {
	n := res.ops
	ms := []metric{
		{"setup_s", median(setupS), "s", len(setupS)},
		{"throughput_qps", float64(n) / res.seconds, "1/s", n},
		{"latency_p50_ms", quantile(res.lat, 0.50), "ms", n},
		{"latency_p95_ms", quantile(res.lat, 0.95), "ms", n},
		{"latency_p99_ms", quantile(res.lat, 0.99), "ms", n},
		{"cpu_ms_per_op", res.cpuS * 1e3 / float64(n), "ms", n},
		{"ej_per_op", res.eActive / float64(n), "J", n},
	}
	if !traced {
		ms = append(ms, metric{"heap_mb", heapMB, "MiB", 1})
	}
	return ms
}

// perLayer derives the per-layer metrics from the traced lanes, the setup
// split and the untraced run's runtime counters.
func perLayer(lanes []*lane, res loadResult, times [3][]float64, wireProbeMs []float64) ([]metric, ladder) {
	var (
		parse, prepare, build, run, self, replay []float64
		begin, update, commit, predErr           []float64
		probe, profile                           []float64
		rows, queries                            float64
		ctr                                      memsim.Counters
		replayNs, replayAcc                      float64
		hits, misses                             float64
	)
	for _, l := range lanes {
		for _, st := range l.stats {
			if st.kind == opUpdate {
				continue
			}
			lay := st.layers
			parse = append(parse, us(lay["sql.ParseStatement"]+lay["sql.Shorthand"]))
			prepare = append(prepare, us(lay["plan.Prepare"]+lay["tpch.QueryByID"]))
			build = append(build, us(lay["plan.Prepared.Build"]+lay["tpch.Query.Build"]))
			run = append(run, us(lay["exec.Collect"])/1e3)
			replay = append(replay, us(st.replayNs)/1e3)
			self = append(self, us(lay["exec.Collect"]-st.replayNs)/1e3)
			if !math.IsNaN(st.pred) && st.measured > 0 {
				predErr = append(predErr, 100*math.Abs(st.pred-st.measured)/st.measured)
			}
			rows += float64(st.rows)
			queries++
			ctr = ctr.Add(st.ctr)
			replayNs += float64(st.replayNs)
			replayAcc += float64(st.replayAcc)
		}
		txns := l.txnProbe
		for _, st := range l.stats {
			if st.kind == opUpdate {
				txns = append(txns, st)
			}
		}
		for _, st := range txns {
			begin = append(begin, us(st.layers["engine.Begin"]))
			update = append(update, us(st.layers["plan.ExecWrite"]))
			commit = append(commit, us(st.layers["engine.Commit"]))
		}
		probe = append(probe, nsToUnit(l.probeNs, 1e3)...)
		profile = append(profile, nsToUnit(l.profileNs, 1e3)...)
		hits += float64(l.bpHits[0])
		misses += float64(l.bpHits[1])
	}
	inproc := median(probe)
	rtt := median(wireProbeMs)*1e3 - inproc
	q := int(queries)
	nops := res.ops
	predMed := 0.0 // no query of the workload carries a prediction (\q6)
	if len(predErr) > 0 {
		predMed = median(predErr)
	}
	ms := []metric{
		{"server.calibrate_s", median(times[1]), "s", len(times[1])},
		{"engine.load_s", median(times[2]), "s", len(times[2])},
		{"server.rtt_us", rtt, "us", len(wireProbeMs)},
		{"sql.parse_us", median(parse), "us", q},
		{"plan.prepare_us", median(prepare), "us", q},
		{"plan.build_us", median(build), "us", q},
		{"plan.pred_error_pct", predMed, "%", len(predErr)},
		{"exec.run_ms", median(run), "ms", q},
		{"exec.self_ms", median(self), "ms", q},
		{"exec.rows_per_op", rows / queries, "count", q},
		{"core.profile_us", median(profile), "us", len(profile)},
		{"memsim.replay_ms", median(replay), "ms", q},
		{"memsim.ns_per_access", replayNs / replayAcc, "ns", q},
		{"memsim.accesses_per_s", replayAcc / replayNs * 1e9, "1/s", q},
		{"memsim.accesses_per_op", float64(ctr.Loads+ctr.Stores) / queries, "count", q},
		{"memsim.l1d_hit_rate", ratio(ctr.L1DHits, ctr.L1DAccesses), "ratio", q},
		{"memsim.l3_miss_rate", ratio(ctr.MemAccesses, ctr.L3Accesses), "ratio", q},
		{"memsim.prefetches_per_kload", 1e3 * ratio(ctr.PrefetchL2+ctr.PrefetchL3, ctr.Loads), "count", q},
		{"memsim.stall_cycles_per_op", float64(ctr.StallCycles) / queries, "count", q},
		{"txn.begin_us", median(begin), "us", len(begin)},
		{"txn.update_us", median(update), "us", len(update)},
		{"txn.commit_us", median(commit), "us", len(commit)},
		{"txn.aborted", float64(res.aborted), "count", 1},
		{"storage.bufpool_hit_rate", hits / (hits + misses), "ratio", int(hits + misses)},
		{"go.alloc_bytes_per_op", float64(res.allocBytes) / float64(nops), "B", nops},
		{"go.allocs_per_op", float64(res.allocs) / float64(nops), "count", nops},
		{"go.gc_cpu_fraction", res.gcCPU / res.totalCPU, "ratio", nops},
	}
	return ms, buildLadder(lanes, rtt)
}

func us(ns int64) float64 { return float64(ns) / 1e3 }

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// closureSpans are the calls the ladder closure adds to the wire round trips.
var closureSpans = []string{"sql.ParseStatement", "sql.Shorthand", "plan.Prepare", "tpch.QueryByID",
	"plan.Prepared.Build", "tpch.Query.Build", "exec.Collect", "engine.Begin", "plan.ExecWrite", "engine.Commit"}

// ladder is the layer split of the traced workload operations.
type ladder struct {
	// closureMs is the median over operations of the wire round trips plus
	// the parse, prepare, build and execute (or transaction) spans.
	closureMs   float64
	tracedP50   float64 // op root spans, traced pass
	untracedP50 float64 // same calls, untraced pass
	selfNs      map[string]float64
	layers      []string
}

// buildLadder derives per-layer self time from the spans: a span's duration
// minus what its child spans cover. The warm replay stands in for the
// simulator's share of exec.Collect, which is charged the remainder.
func buildLadder(lanes []*lane, rttUs float64) ladder {
	lad := ladder{selfNs: map[string]float64{}}
	var closure, traced, untraced []float64
	for _, l := range lanes {
		children := map[int]int64{}
		for _, s := range l.tr.spans {
			if s.Parent >= 0 {
				children[s.Parent] += s.End - s.Start
			}
		}
		for _, s := range l.tr.spans {
			if s.Stmt < 0 || s.Name == "trace.Capture" || s.Name == "memsim.replay" {
				continue
			}
			lad.selfNs[layerOf[s.Name]] += float64(s.End - s.Start - children[s.ID])
		}
		for _, st := range l.stats {
			lay := st.layers
			sum := float64(st.stmts) * rttUs * 1e3
			for _, name := range closureSpans {
				sum += float64(lay[name])
			}
			closure = append(closure, sum/1e6)
			traced = append(traced, float64(lay["op"])/1e6)
			sim := float64(min(st.replayNs, lay["exec.Collect"]))
			lad.selfNs["exec"] -= sim
			lad.selfNs["memsim"] += sim
			lad.selfNs["wire"] += float64(st.stmts) * rttUs * 1e3
		}
		untraced = append(untraced, nsToUnit(l.untracedNs, 1e6)...)
	}
	lad.closureMs, lad.tracedP50, lad.untracedP50 = median(closure), median(traced), median(untraced)
	for k := range lad.selfNs {
		lad.layers = append(lad.layers, k)
	}
	sort.Slice(lad.layers, func(i, j int) bool { return lad.selfNs[lad.layers[i]] > lad.selfNs[lad.layers[j]] })
	return lad
}

func (lad ladder) share(layer string) float64 {
	total := 0.0
	for _, v := range lad.selfNs {
		total += v
	}
	return lad.selfNs[layer] / total
}

func (lad ladder) print(w workload, wireP50 float64) {
	fmt.Printf("layer self-time shares (%s, traced pass):\n", w.name)
	for _, k := range lad.layers {
		fmt.Printf("  %-8s %6.2f%%  %.3f ms\n", k, 100*lad.share(k), lad.selfNs[k]/1e6)
	}
	// The split each workload was chosen for (see README.md).
	top, bottom := lad.layers[0], lad.layers[len(lad.layers)-1]
	switch w.name {
	case "scan-100mb":
		fmt.Printf("split check: memsim has the largest self-time share: %v (largest: %s)\n", top == "memsim", top)
		fmt.Printf("split check: parse and plan are bypassed: sql+plan share %.3f%%\n",
			100*(lad.share("sql")+lad.share("plan")))
	case "oltp-rw":
		fmt.Printf("split check: memsim has the smallest self-time share: %v (smallest: %s)\n", bottom == "memsim", bottom)
	}
	gap := (lad.closureMs - wireP50) / wireP50
	fmt.Printf("ladder closure: rtt+parse+prepare+build+exec|txn p50 %.4f ms vs untraced latency_p50_ms %.4f ms: gap %+.1f%%\n",
		lad.closureMs, wireP50, 100*gap)
	fmt.Printf("tracing overhead: traced in-process p50 %.4f ms vs untraced %.4f ms: %+.1f%%\n",
		lad.tracedP50, lad.untracedP50, 100*(lad.tracedP50/lad.untracedP50-1))
}
