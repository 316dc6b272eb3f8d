package experiment

import (
	"sync"
	"testing"

	"mcopt/internal/linarr"
	"mcopt/internal/stats"
)

func TestSuiteDeterministic(t *testing.T) {
	a := NewSuite(GOLAParams(), 7)
	b := NewSuite(GOLAParams(), 7)
	if a.StartDensitySum() != b.StartDensitySum() {
		t.Fatal("same seed produced different suites")
	}
	for i := 0; i < a.Size(); i++ {
		if !stats.EqualInts(a.Starts[i], b.Starts[i]) {
			t.Fatalf("instance %d starts differ", i)
		}
	}
	c := NewSuite(GOLAParams(), 8)
	if a.StartDensitySum() == c.StartDensitySum() {
		t.Fatal("different seeds produced identical start sums (suspicious)")
	}
}

func TestGOLASuiteMatchesPaperRegime(t *testing.T) {
	// The paper's GOLA suite had a random starting density sum of 2594
	// (≈86.5 per instance). Our regenerated suite must land in the same
	// regime: 15 cells, 150 two-pin nets.
	s := NewSuite(GOLAParams(), 1)
	if s.Size() != 30 {
		t.Fatalf("suite size %d, want 30", s.Size())
	}
	sum := s.StartDensitySum()
	if sum < 2300 || sum > 2900 {
		t.Fatalf("GOLA start density sum = %d, want within [2300, 2900] (paper: 2594)", sum)
	}
	for i, nl := range s.Netlists {
		if nl.NumCells() != 15 || nl.NumNets() != 150 || !nl.IsGraph() {
			t.Fatalf("instance %d is not a 15-cell/150-net graph", i)
		}
	}
}

func TestNOLASuiteMatchesPaperRegime(t *testing.T) {
	// Paper: NOLA random starting density sum 4254 (≈142 per instance).
	s := NewSuite(NOLAParams(), 1)
	sum := s.StartDensitySum()
	if sum < 3800 || sum > 4700 {
		t.Fatalf("NOLA start density sum = %d, want within [3800, 4700] (paper: 4254)", sum)
	}
	multi := false
	for _, nl := range s.Netlists {
		if !nl.IsGraph() {
			multi = true
		}
	}
	if !multi {
		t.Fatal("NOLA suite contains no multi-pin nets")
	}
}

func TestWithGotoStartsImproves(t *testing.T) {
	s := NewSuite(GOLAParams(), 2)
	g := s.WithGotoStarts()
	if g.StartDensitySum() >= s.StartDensitySum() {
		t.Fatalf("Goto starts (%d) not below random starts (%d)",
			g.StartDensitySum(), s.StartDensitySum())
	}
	if len(g.Netlists) != len(s.Netlists) {
		t.Fatal("WithGotoStarts changed the instance set")
	}
}

func TestStartReturnsFreshCopies(t *testing.T) {
	s := NewSuite(GOLAParams(), 3)
	a := s.Start(0)
	a.EvalSwap(0, 1).Apply()
	b := s.Start(0)
	if !stats.EqualInts(b.Order(), s.Starts[0]) {
		t.Fatal("mutating one Start() arrangement leaked into the suite")
	}
}

// TestStartBuildsOnceConcurrently calls Start and StartDensities from many
// goroutines on fresh suites of each origin — NewSuite, WithGotoStarts and
// LoadSuite — so the one lazy build races its readers (run under -race in
// CI). Every arrangement must equal one built directly from the suite's
// order, and every Start must be a private copy.
func TestStartBuildsOnceConcurrently(t *testing.T) {
	random := NewSuite(GOLAParams(), 4)
	dir := t.TempDir()
	if err := SaveSuite(dir, random); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadSuite(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []*Suite{NewSuite(NOLAParams(), 4), random.WithGotoStarts(), loaded} {
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < s.Size(); i++ {
					a := s.Start(i)
					want := linarr.MustNew(s.Netlists[i], s.Starts[i])
					if !stats.EqualInts(a.Order(), s.Starts[i]) || a.Density() != want.Density() || a.TotalSpan() != want.TotalSpan() {
						t.Errorf("%s instance %d: Start differs from a fresh build", s.Name, i)
					}
					if d := s.StartDensities()[i]; d != want.Density() {
						t.Errorf("%s instance %d: StartDensities %d, want %d", s.Name, i, d, want.Density())
					}
					a.EvalSwap(0, a.NumCells()-1).Apply() // must not touch the suite's copy
				}
			}()
		}
		wg.Wait()
	}
}

func TestSecondsConversion(t *testing.T) {
	if Seconds(6) != 6*MovesPerVAXSecond {
		t.Fatalf("Seconds(6) = %d", Seconds(6))
	}
	bs := PaperBudgets(1)
	if len(bs) != 3 || bs[0] != Seconds(6) || bs[1] != Seconds(9) || bs[2] != Seconds(12) {
		t.Fatalf("PaperBudgets(1) = %v", bs)
	}
	half := PaperBudgets(0.5)
	if half[0] != Seconds(3) {
		t.Fatalf("PaperBudgets(0.5)[0] = %d, want %d", half[0], Seconds(3))
	}
}
