package main

import (
	"fmt"
	"math/rand"
	"strconv"

	"energydb/internal/tpch"
)

// clients is the closed-loop client count, one connection each. It equals
// the server's worker count and the nproc of the 2-vCPU host the nominal
// rates were measured on.
const clients = 2

// customers is the customer cardinality of the 10MB class (TPC-H SF 0.001);
// keys run from 0 to customers-1.
const customers = 150

// workload is one traffic mix. rate is the nominal ops/s measured when the
// benchmark was defined: a run sends rate × --seconds operations, but at
// least minOps, so a run always ends at the same operation count — heap_mb
// then measures the same work whatever the throughput.
type workload struct {
	name                   string
	engine, setting, class string
	rate                   float64
	minOps                 int
	warmup                 string // one statement per client before timing
	traced                 int    // operations per lane in the traced run
}

var workloads = []workload{
	// The 22 TPC-H SQL texts: parse, the energy-costed planner and the vector
	// executor, on a 1 MB heap that fits the simulated L3.
	{
		name:   "olap-sql",
		engine: "postgresql", setting: "baseline", class: "10MB",
		rate: 300, warmup: rpcProbe, traced: 44,
	},
	// The hand-built \q6 row scan of a 9.8 MB heap, larger than the simulated
	// L3: memsim's miss and prefetch path, with parser and planner bypassed.
	{
		name:   "scan-100mb",
		engine: "sqlite", setting: "baseline", class: "100MB",
		// 1000 operations leave 10 samples beyond latency_p99_ms.
		rate: 25, minOps: 1000, warmup: `\q6`, traced: 8,
	},
	// 80% Zipf point reads, 20% BEGIN/UPDATE/COMMIT on disjoint keys: the
	// per-statement fixed costs of wire, parse, plan, txn and WAL.
	{
		name:   "oltp-rw",
		engine: "postgresql", setting: "baseline", class: "10MB",
		rate: 20000, warmup: rpcProbe, traced: 1500,
	},
}

// ops is the run's operation count.
func (w workload) ops(seconds int) int { return max(int(w.rate*float64(seconds)), w.minOps) }

// rpcProbe is the trivial point statement whose wire round trip, minus its
// in-process time, is server.rtt_us.
const rpcProbe = "SELECT r_name FROM region WHERE r_regionkey = 0"

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

type opKind uint8

const (
	opQuery  opKind = iota // one SELECT or \qN statement
	opUpdate               // BEGIN; UPDATE customer ...; COMMIT
)

// op is one operation of a client's stream. For an olap-sql query ref is
// the index into tpch.SQLQueries; for oltp-rw ops it is the customer key.
type op struct {
	kind opKind
	text string
	ref  int
	val  float64 // new c_acctbal of an update
}

// The transaction-control texts of an update operation.
const (
	beginText  = "BEGIN"
	commitText = "COMMIT"
)

// streams generates every client's operation stream from the seed before
// any timing starts. The server only ever sees these texts.
func streams(w workload, seed int64, seconds int) [][]op {
	perClient := (w.ops(seconds) + clients*servers - 1) / (clients * servers) * servers
	out := make([][]op, clients)
	for c := range out {
		rng := rand.New(rand.NewSource(seed*1000003 + int64(c)))
		switch w.name {
		case "olap-sql":
			out[c] = olapStream(rng, perClient)
		case "scan-100mb":
			out[c] = make([]op, perClient)
			for i := range out[c] {
				out[c][i] = op{kind: opQuery, text: `\q6`}
			}
		case "oltp-rw":
			out[c] = oltpStream(rng, c, perClient, seed)
		}
	}
	return out
}

// olapStream is complete passes over seeded permutations of the 22 query
// texts, a whole number of them per server, so every query carries equal
// weight whatever the run length.
func olapStream(rng *rand.Rand, n int) []op {
	qs := tpch.SQLQueries()
	passes := max((n+len(qs)*servers-1)/(len(qs)*servers), 1) * servers
	out := make([]op, 0, passes*len(qs))
	for range passes {
		for _, i := range rng.Perm(len(qs)) {
			out = append(out, op{kind: opQuery, text: qs[i].Text, ref: i})
		}
	}
	return out
}

// oltpStream draws reads from a Zipf over all customers and updates from a
// Zipf over this client's half of the keys (key % clients == client), so
// the two clients never write the same row and
// first-updater-wins never aborts. The key ranking is a permutation shared
// by both clients and fixed by the seed, so each seed has its own hot keys.
func oltpStream(rng *rand.Rand, client, n int, seed int64) []op {
	rank := rand.New(rand.NewSource(seed)).Perm(customers)
	var own []int
	for _, k := range rank {
		if owner(k) == client {
			own = append(own, k)
		}
	}
	reads := rand.NewZipf(rng, 1.1, 1, customers-1)
	writes := rand.NewZipf(rng, 1.1, 1, uint64(len(own)-1))
	out := make([]op, n)
	for i := range out {
		if rng.Intn(5) == 0 {
			k := own[writes.Uint64()]
			// Distinct per (client, op), exact in binary, so a read-back
			// names the write it saw.
			v := float64(client*1_000_000+i) + 0.25
			out[i] = op{kind: opUpdate, ref: k, val: v, text: "UPDATE customer SET c_acctbal = " +
				strconv.FormatFloat(v, 'f', -1, 64) + " WHERE c_custkey = " + strconv.Itoa(k)}
			continue
		}
		k := rank[reads.Uint64()]
		out[i] = op{kind: opQuery, ref: k, text: pointRead(k)}
	}
	return out
}

func pointRead(k int) string {
	return "SELECT c_name, c_acctbal FROM customer WHERE c_custkey = " + strconv.Itoa(k)
}
