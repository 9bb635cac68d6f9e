package experiments

import (
	"os"
	"slices"
	"strings"
	"testing"
)

// TestAllExperimentsPass runs every registered experiment and requires
// every shape check against the paper to pass. This is the repository's
// reproduction gate: if the simulator or cost model drifts, the knees
// of the paper's curves move and these fail.
func TestAllExperimentsPass(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments take a few seconds; skipped with -short")
	}
	for _, id := range IDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			res, err := Run(id)
			if err != nil {
				t.Fatalf("%s: %v", id, err)
			}
			for _, c := range res.Checks {
				if c.Pass {
					t.Logf("PASS %s: %s", c.Name, c.Detail)
				} else {
					t.Errorf("FAIL %s: %s", c.Name, c.Detail)
				}
			}
			if len(res.Checks) == 0 {
				t.Error("experiment declared no checks")
			}
			if len(res.Tables) == 0 && len(res.Series) == 0 {
				t.Error("experiment produced no output")
			}
		})
	}
}

func TestRegistry(t *testing.T) {
	ids := IDs()
	if len(ids) != 18 {
		t.Fatalf("registry has %d experiments, want 18: %v", len(ids), ids)
	}
	if ids[0] != "e1" || ids[len(ids)-1] != "e18" {
		t.Fatalf("ids out of order: %v", ids)
	}
	for _, id := range ids {
		title, ok := Title(id)
		if !ok || title == "" {
			t.Errorf("no title for %s", id)
		}
	}
	if _, ok := Title("nope"); ok {
		t.Error("Title(nope) claimed to exist")
	}
	if _, err := Run("nope"); err == nil || !strings.Contains(err.Error(), "unknown id") {
		t.Errorf("Run(nope) = %v", err)
	}
}

func TestResultHelpers(t *testing.T) {
	r := &Result{ID: "x"}
	r.check("a", true, "fine")
	if !r.Passed() {
		t.Fatal("Passed false with all-pass checks")
	}
	r.check("b", false, "broken %d", 7)
	if r.Passed() {
		t.Fatal("Passed true with a failing check")
	}
	if r.Checks[1].Detail != "broken 7" {
		t.Fatalf("detail = %q", r.Checks[1].Detail)
	}
	_ = os.Stdout
}

// TestProveNamesDivergentRun: a run whose key differs only at workers 4
// must fail the proof with an error naming workers 4, and runs whose
// keys all agree pass with the first run's result.
func TestProveNamesDivergentRun(t *testing.T) {
	var ran []int
	run := func(w int) (int, error) {
		ran = append(ran, w)
		if w == 4 {
			return 1, nil
		}
		return 0, nil
	}
	self := func(k int) int { return k }
	_, err := Prove(run, self, 1, 2, 4, 8)
	if err == nil || !strings.Contains(err.Error(), "workers 4 ") {
		t.Fatalf("Prove = %v, want an error naming workers 4", err)
	}
	ran = nil
	got, err := Prove(run, self, 1, 2, 8)
	if err != nil || got != 0 {
		t.Fatalf("Prove = %d, %v; want 0, nil", got, err)
	}
	if want := []int{1, 2, 8, 1}; !slices.Equal(ran, want) {
		t.Fatalf("ran worker counts %v, want %v (each once, then a rerun at the first)", ran, want)
	}
}
