// Package experiment regenerates the paper's evaluation: Tables 4.1 and
// 4.2(a)–(d) over 30-instance GOLA/NOLA suites, with the paper's
// equal-computing-time control expressed as deterministic move budgets.
package experiment

import (
	"fmt"
	"sync"

	"mcopt/internal/gotoh"
	"mcopt/internal/linarr"
	"mcopt/internal/netlist"
	"mcopt/internal/rng"
)

// MovesPerVAXSecond converts the paper's VAX 11/780 CPU seconds into move
// budgets: 6 s → 1 200 attempted perturbations. The constant was calibrated
// so that the regenerated Table 4.1 reproduces the paper's differentiation
// (see EXPERIMENTS.md): at much larger budgets every Monte Carlo method
// saturates to the same optima and the paper's ranking disappears, while at
// this scale the Goto-vs-Monte-Carlo crossover, the weakness of the value
// classes, and the §4.2.2 leaders all match. It is also consistent with a
// ~0.5 MIPS VAX running Pascal ("about 20 seconds to find a local optima"
// ≈ 4 000 evaluations against our 300–600 per random-start descent). Every
// method sees the same conversion, which is all the paper's fairness
// control requires.
const MovesPerVAXSecond = 200

// Seconds converts paper-quoted CPU seconds into a move budget.
func Seconds(s float64) int64 { return int64(s * MovesPerVAXSecond) }

// Suite is a fixed set of problem instances, each with a fixed starting
// arrangement shared by every method ("Each g class used the same initial
// arrangement", §4.2.1).
//
// The starting arrangements are built once, on first use, and every Start
// clones one of them, so all cells of an instance share its wiring.
// Netlists and Starts must not change after that first use.
type Suite struct {
	// Name labels the suite in table titles, e.g. "GOLA".
	Name string
	// Netlists holds the instances.
	Netlists []*netlist.Netlist
	// Starts[i] is the starting cell order for instance i.
	Starts [][]int

	build  sync.Once
	starts []*linarr.Arrangement // starts[i] = instance i in Starts[i]
}

// SuiteParams describes a random instance family.
type SuiteParams struct {
	Name      string
	Instances int
	Cells     int
	Nets      int
	// MinPins/MaxPins bound net sizes; 2/2 yields a GOLA (graph) suite.
	MinPins, MaxPins int
}

// GOLAParams are the paper's §4.2.1 settings: "30 random GOLA instances.
// Each instance consisted of 15 circuit elements and 150 two pin nets."
func GOLAParams() SuiteParams {
	return SuiteParams{Name: "GOLA", Instances: 30, Cells: 15, Nets: 150, MinPins: 2, MaxPins: 2}
}

// NOLAParams are the §4.3.1 settings: 30 instances, 15 elements, 150 nets,
// with multi-pin nets (2–8 pins) sized so that random-start densities fall
// in the regime of the paper's Table 4.2(c) starting sum.
func NOLAParams() SuiteParams {
	return SuiteParams{Name: "NOLA", Instances: 30, Cells: 15, Nets: 150, MinPins: 2, MaxPins: 8}
}

// NewSuite generates a suite with random starting arrangements. The same
// (params, seed) pair always regenerates the identical suite.
func NewSuite(p SuiteParams, seed uint64) *Suite {
	s := &Suite{
		Name:     p.Name,
		Netlists: make([]*netlist.Netlist, p.Instances),
		Starts:   make([][]int, p.Instances),
	}
	for i := range s.Netlists {
		gen := rng.Derive("suite/"+p.Name+"/netlist", seed, uint64(i))
		if p.MinPins == 2 && p.MaxPins == 2 {
			s.Netlists[i] = netlist.RandomGraph(gen, p.Cells, p.Nets)
		} else {
			s.Netlists[i] = netlist.RandomHyper(gen, p.Cells, p.Nets, p.MinPins, p.MaxPins)
		}
		order := make([]int, p.Cells)
		rng.Perm(rng.Derive("suite/"+p.Name+"/start", seed, uint64(i)), order)
		s.Starts[i] = order
	}
	return s
}

// WithGotoStarts returns a suite over the same netlists whose starting
// arrangements are Goto's constructive orders (§4.2.3, §4.3.1).
func (s *Suite) WithGotoStarts() *Suite {
	out := &Suite{
		Name:     s.Name + "/goto-start",
		Netlists: s.Netlists,
		Starts:   make([][]int, len(s.Netlists)),
	}
	for i, nl := range s.Netlists {
		out.Starts[i] = gotoh.Order(nl)
	}
	return out
}

// Size returns the number of instances.
func (s *Suite) Size() int { return len(s.Netlists) }

// arrangements returns the starting arrangements, building them on the
// first call; it is safe for concurrent use. Callers only read them.
func (s *Suite) arrangements() []*linarr.Arrangement {
	s.build.Do(func() {
		s.starts = make([]*linarr.Arrangement, len(s.Netlists))
		for i, nl := range s.Netlists {
			s.starts[i] = linarr.MustNew(nl, s.Starts[i])
		}
	})
	return s.starts
}

// Start returns a fresh arrangement of instance i in its starting order.
func (s *Suite) Start(i int) *linarr.Arrangement {
	return s.arrangements()[i].Clone()
}

// StartDensities returns the density of each starting arrangement.
func (s *Suite) StartDensities() []int {
	out := make([]int, s.Size())
	for i, a := range s.arrangements() {
		out[i] = a.Density()
	}
	return out
}

// StartDensitySum returns the suite's total starting density — the paper's
// "sum of the densities of the starting arrangements" (2594 for its GOLA
// suite, 4254 for NOLA).
func (s *Suite) StartDensitySum() int {
	total := 0
	for _, d := range s.StartDensities() {
		total += d
	}
	return total
}

// String implements fmt.Stringer.
func (s *Suite) String() string {
	return fmt.Sprintf("%s suite (%d instances)", s.Name, s.Size())
}
