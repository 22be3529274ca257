package main

import (
	"fmt"
	"maps"
	"math"
	"strconv"
	"strings"

	"energydb/internal/cpusim"
	"energydb/internal/db/engine"
	"energydb/internal/db/exec"
	"energydb/internal/db/plan"
	"energydb/internal/db/sql"
	"energydb/internal/db/value"
	"energydb/internal/server"
	"energydb/internal/tpch"
)

// reference holds the expected answers, computed in-process on an engine of
// the workload's profile loaded with the same data as the server's store.
// The engine is kept: the traced run attaches its lanes to the same store.
type reference struct {
	eng *engine.Engine

	olap    []olapRef // per tpch.SQLQueries index
	revenue float64   // \q6

	names  map[int]string           // c_name per customer key
	orig   map[int]float64          // c_acctbal at load
	writes map[int]map[float64]bool // every value the key's owner may commit
}

func newReference(w workload, st [][]op) (*reference, error) {
	kind, err := server.ParseKind(w.engine)
	if err != nil {
		return nil, err
	}
	setting, err := server.ParseSetting(w.setting)
	if err != nil {
		return nil, err
	}
	class, err := server.ParseClass(w.class)
	if err != nil {
		return nil, err
	}
	ref := &reference{eng: engine.New(kind, cpusim.NewMachine(cpusim.IntelI7_4790()), setting)}
	tpch.Setup(ref.eng, class)
	switch w.name {
	case "olap-sql":
		for _, q := range tpch.SQLQueries() {
			r, err := olapReference(ref.eng, q.Text)
			if err != nil {
				return nil, fmt.Errorf("reference Q%d: %w", q.ID, err)
			}
			ref.olap = append(ref.olap, r)
		}
	case "scan-100mb":
		q, err := tpch.QueryByID(6)
		if err != nil {
			return nil, err
		}
		p, err := q.Build(ref.eng)
		if err != nil {
			return nil, err
		}
		rows, err := exec.Collect(p)
		if err != nil {
			return nil, err
		}
		ref.revenue = rows[0][0].AsFloat()
	case "oltp-rw":
		rows, _, err := plan.Run(ref.eng, "SELECT c_custkey, c_name, c_acctbal FROM customer")
		if err != nil {
			return nil, err
		}
		ref.names, ref.orig = map[int]string{}, map[int]float64{}
		ref.writes = map[int]map[float64]bool{}
		for _, r := range rows {
			k := int(r[0].AsInt())
			ref.names[k], ref.orig[k] = r[1].S, r[2].AsFloat()
			ref.writes[k] = map[float64]bool{}
		}
		for _, s := range st {
			for _, o := range s {
				if o.kind == opUpdate {
					ref.writes[o.ref][o.val] = true
				}
			}
		}
	}
	return ref, nil
}

// olapRef is one query's expected answer. Without ORDER BY the statement
// leaves row order, and under LIMIT the choice of rows, to the executor
// (hash aggregation emits groups in table order), so such an answer is
// checked as the right number of rows drawn from the unlimited result.
type olapRef struct {
	rows []value.Row
	pool map[string]int // unlimited result as a multiset; nil when ordered
}

func olapReference(e *engine.Engine, text string) (olapRef, error) {
	rows, _, err := plan.Run(e, text)
	if err != nil {
		return olapRef{}, err
	}
	r := olapRef{rows: rows}
	stmt, err := sql.Parse(text)
	if err != nil || len(stmt.OrderBy) > 0 {
		return r, err
	}
	stmt.Limit = 0
	p, err := plan.Prepare(e, stmt)
	if err != nil {
		return r, err
	}
	root, err := p.Build()
	if err != nil {
		return r, err
	}
	all, err := exec.Collect(root)
	r.pool = map[string]int{}
	for _, row := range all {
		r.pool[rowKey(row)]++
	}
	return r, err
}

func (r olapRef) check(got []value.Row) error {
	if r.pool == nil {
		return sameRows(got, r.rows)
	}
	if len(got) != len(r.rows) {
		return fmt.Errorf("%d rows, want %d", len(got), len(r.rows))
	}
	left := maps.Clone(r.pool)
	for i, row := range got {
		k := rowKey(row)
		if left[k] == 0 {
			return fmt.Errorf("row %d %v is not in the result", i, row)
		}
		left[k]--
	}
	return nil
}

// rowKey renders a row with floats to 12 significant digits, which absorbs
// summation-order differences.
func rowKey(row value.Row) string {
	var b strings.Builder
	for _, v := range row {
		if v.T == value.TypeFloat {
			b.WriteString(strconv.FormatFloat(v.F, 'g', 12, 64))
		} else {
			b.WriteString(v.String())
		}
		b.WriteByte(0)
	}
	return b.String()
}

// owner is the client that updates customer key k (see oltpStream).
func owner(k int) int { return k % clients }

// check verifies one operation's answer. last holds the values this client
// has committed so far, so a read of one of its own keys must return the
// latest; a read of the other client's key must return the loaded value or
// one that client writes in its stream.
func (ref *reference) check(client int, o op, rows []value.Row, last map[int]float64) error {
	switch {
	case ref.olap != nil:
		return ref.olap[o.ref].check(rows)
	case ref.names == nil:
		if len(rows) != 1 || !sameFloat(rows[0][0].AsFloat(), ref.revenue) {
			return fmt.Errorf("revenue %v, want %v", rows, ref.revenue)
		}
		return nil
	case o.kind == opUpdate:
		if len(rows) != 1 || rows[0][0].AsInt() != 1 {
			return fmt.Errorf("update touched %v rows, want 1", rows)
		}
		return nil
	}
	k := o.ref
	if len(rows) != 1 || rows[0][0].S != ref.names[k] {
		return fmt.Errorf("got %v, want one row named %q", rows, ref.names[k])
	}
	v := rows[0][1].AsFloat()
	if owner(k) == client {
		want, ok := last[k]
		if !ok {
			want = ref.orig[k]
		}
		if v != want {
			return fmt.Errorf("own key %d reads c_acctbal %v, last committed %v", k, v, want)
		}
		return nil
	}
	if v != ref.orig[k] && !ref.writes[k][v] {
		return fmt.Errorf("key %d reads c_acctbal %v, never written", k, v)
	}
	return nil
}

func sameRows(got, want []value.Row) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d rows, want %d", len(got), len(want))
	}
	for i := range got {
		if len(got[i]) != len(want[i]) {
			return fmt.Errorf("row %d has %d columns, want %d", i, len(got[i]), len(want[i]))
		}
		for j, g := range got[i] {
			w := want[i][j]
			if g.T == value.TypeFloat && w.T == value.TypeFloat {
				if !sameFloat(g.F, w.F) {
					return fmt.Errorf("row %d col %d = %v, want %v", i, j, g, w)
				}
			} else if !value.Equal(g, w) {
				return fmt.Errorf("row %d col %d = %v, want %v", i, j, g, w)
			}
		}
	}
	return nil
}

// sameFloat allows for summation-order differences between plans.
func sameFloat(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}
