package lint

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// golden runs one analyzer over its fixture module under testdata/<name>
// and compares the rendered findings against expect.txt in the same
// directory (paths relative to the fixture root). Regenerate with
// UPDATE_GOLDEN=1 go test ./internal/lint.
func golden(t *testing.T, a *Analyzer) {
	t.Helper()
	dir, err := filepath.Abs(filepath.Join("testdata", a.Name))
	if err != nil {
		t.Fatal(err)
	}
	prog, err := Load(dir, "./...")
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	var b strings.Builder
	for _, d := range Run(prog, []*Analyzer{a}) {
		rel, err := filepath.Rel(dir, d.Pos.Filename)
		if err != nil {
			rel = d.Pos.Filename
		}
		fmt.Fprintf(&b, "%s:%d:%d: [%s] %s\n",
			filepath.ToSlash(rel), d.Pos.Line, d.Pos.Column, d.Analyzer, d.Msg)
	}
	got := b.String()
	expectPath := filepath.Join(dir, "expect.txt")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(expectPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(expectPath)
	if err != nil {
		t.Fatalf("reading golden file: %v (run with UPDATE_GOLDEN=1 to create it)", err)
	}
	if got != string(want) {
		t.Errorf("findings differ from %s:\n--- got ---\n%s--- want ---\n%s", expectPath, got, want)
	}
	if strings.TrimSpace(got) == "" {
		t.Errorf("fixture produced no findings; the analyzer no longer detects its seeded violations")
	}
}

func TestGoldenCounterDelta(t *testing.T) { golden(t, AnalyzerCounterDelta) }
func TestGoldenLockOrder(t *testing.T)    { golden(t, AnalyzerLockOrder) }
func TestGoldenWireSym(t *testing.T)      { golden(t, AnalyzerWireSym) }
func TestGoldenChargePath(t *testing.T)   { golden(t, AnalyzerChargePath) }
func TestGoldenPoolEscape(t *testing.T)   { golden(t, AnalyzerPoolEscape) }
func TestGoldenWalErr(t *testing.T)       { golden(t, AnalyzerWalErr) }
func TestGoldenRetirePath(t *testing.T)   { golden(t, AnalyzerRetirePath) }

// folded pins the cases of an analyzer that was folded into a (CFG-based)
// successor: each fire entry ("file|message fragment") must be reported
// by a on its fixture module, and no finding may name a function in
// clean. It guards the fold itself, so a later edit to the successor's
// golden file cannot quietly drop a contract the old analyzer enforced.
func folded(t *testing.T, a *Analyzer, fire, clean []string) {
	t.Helper()
	dir, err := filepath.Abs(filepath.Join("testdata", a.Name))
	if err != nil {
		t.Fatal(err)
	}
	prog, err := Load(dir, "./...")
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	var got []string
	for _, d := range Run(prog, []*Analyzer{a}) {
		rel, err := filepath.Rel(dir, d.Pos.Filename)
		if err != nil {
			rel = d.Pos.Filename
		}
		got = append(got, filepath.ToSlash(rel)+"|"+d.Msg)
	}
	for _, want := range fire {
		file, frag, _ := strings.Cut(want, "|")
		found := false
		for _, g := range got {
			if strings.HasPrefix(g, file+"|") && strings.Contains(g, frag) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("%s no longer reports %q; findings:\n%s", a.Name, want, strings.Join(got, "\n"))
		}
	}
	for _, fn := range clean {
		for _, g := range got {
			if strings.Contains(g, "|"+fn+":") {
				t.Errorf("%s reports clean function %s: %s", a.Name, fn, g)
			}
		}
	}
}

// TestGoldenCancelPoll pins the cancellation-polling contract, once its
// own analyzer and now chargepath's poll rule: raw-cursor loops, []Row
// loops and sort comparators must poll, and a charge alone is not a poll.
func TestGoldenCancelPoll(t *testing.T) {
	folded(t, AnalyzerChargePath, []string{
		"exec/poll.go|scanRaw: raw-cursor loop",
		"exec/poll.go|updateWhere: raw-cursor loop never polls cancellation",
		"exec/poll.go|materialize: loop over []Row",
		"exec/poll.go|orderRows: sort comparator never polls cancellation",
		"exec/poll.go|orderRowsCharged: sort comparator never polls cancellation",
		"vec/poll.go|materializeUnpolled: loop can pull a batch",
		"vec/poll.go|materializeUnpolled: loop over []Row",
		"vec/poll.go|buildChunkedUnpolled: loop over []Row",
	}, []string{
		"scanPolled", "materializePolled", "materializeStrided",
		"orderRowsPolled", "header", "drain", "buildChunked",
	})
}

// TestGoldenLedgerRetire pins the ledger contract, once its own analyzer
// and now part of retirepath: every profiled breakdown in a ledger scope
// is retired or handed on, and every Dial result is closed or handed on.
func TestGoldenLedgerRetire(t *testing.T) {
	folded(t, AnalyzerRetirePath, []string{
		"ledger/dial.go|DialLeaky: Dial result nc",
		"ledger/dial.go|DialReusedErr: Dial result nc",
		"ledger/profile.go|measureAndDrop: profiled breakdown",
	}, []string{
		"DialGuarded", "measureAndRetire", "measureForCaller", "measureInto",
	})
}

// TestRepoClean asserts the full suite reports nothing on the repository
// itself: every real finding has been fixed or carries a justified waiver,
// and HEAD must stay that way (energylint is a required CI gate).
func TestRepoClean(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	prog, err := Load(root, "./...")
	if err != nil {
		t.Fatalf("loading repository: %v", err)
	}
	for _, d := range Run(prog, All()) {
		t.Errorf("unexpected finding at HEAD: %s", d)
	}
}
