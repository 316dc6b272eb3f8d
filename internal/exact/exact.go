// Package exact computes provably optimal linear-arrangement densities for
// small instances by dynamic programming over cell subsets.
//
// The key structural fact: the number of nets crossing the gap after a
// prefix of the arrangement depends only on the *set* of cells placed, not
// their order. Writing cut(S) for the number of nets with a pin both inside
// and outside S, the optimal density is
//
//	f(S) = max(cut(S), min_{c ∈ S} f(S \ {c})),   f(∅) = 0,
//
// over the 2^n subsets — the same recurrence family used for pathwidth.
// With the paper's 15-element instances this is ~32 768 states and exact
// optima come back in milliseconds, which lets EXPERIMENTS.md report true
// optimality gaps for every Monte Carlo method (something the 1985 authors
// could not do).
//
// The package is exponential by nature and refuses instances beyond
// MaxCells.
package exact

import (
	"fmt"
	"math/bits"

	"mcopt/internal/netlist"
)

// MaxCells bounds the DP (2^22 ints ≈ 16 MiB of table).
const MaxCells = 22

// MinDensity returns the optimal (minimum achievable) density of the
// netlist over all n! linear arrangements. It errors on instances with
// more than MaxCells cells.
func MinDensity(nl *netlist.Netlist) (int, error) {
	return new(Solver).MinDensity(nl)
}

// Solver computes MinDensity for a sequence of instances, reusing its two
// 2^n DP tables from one instance to the next. A Solver is not safe for
// concurrent use; the zero value is ready.
type Solver struct {
	cut, f []int32
}

// MinDensity is the package-level MinDensity on the solver's tables.
func (sv *Solver) MinDensity(nl *netlist.Netlist) (int, error) {
	f, err := sv.solve(nl)
	if err != nil {
		return 0, err
	}
	return int(f[len(f)-1]), nil
}

// table returns buf resized to n entries, reusing its storage when it is
// large enough. Every entry is overwritten by the DP before it is read.
func table(buf []int32, n int) []int32 {
	if cap(buf) < n {
		return make([]int32, n)
	}
	return buf[:n]
}

// MinTotalSpan returns the optimal total wirelength (sum of net spans, the
// [KANG83] objective) over all linear arrangements. Because the total span
// equals the sum of the frontier cuts over all prefixes, the same subset DP
// applies with + in place of max:
//
//	f(S) = cut(S) + min_{c ∈ S} f(S \ {c}),   f(∅) = 0.
func MinTotalSpan(nl *netlist.Netlist) (int, error) {
	n := nl.NumCells()
	if n > MaxCells {
		return 0, fmt.Errorf("exact: %d cells exceeds MaxCells = %d", n, MaxCells)
	}
	cut, err := frontierCuts(nl, nil)
	if err != nil {
		return 0, err
	}
	full := uint32(1)<<n - 1
	f := make([]int32, full+1)
	for s := uint32(1); s <= full; s++ {
		best := int32(1) << 30
		rem := s
		for rem != 0 {
			c := bits.TrailingZeros32(rem)
			rem &^= uint32(1) << c
			if v := f[s&^(uint32(1)<<c)]; v < best {
				best = v
			}
		}
		f[s] = cut[s] + best
	}
	return int(f[full]), nil
}

// OptimalOrder returns an arrangement achieving MinDensity, reconstructed
// from the DP table (order[pos] = cell).
func OptimalOrder(nl *netlist.Netlist) ([]int, error) {
	f, err := new(Solver).solve(nl)
	if err != nil {
		return nil, err
	}
	n := nl.NumCells()
	order := make([]int, n)
	s := uint32(1)<<n - 1
	// Walk backwards: at each step remove a cell c with f(S) ==
	// max(cut(S\c) ... ) consistent, i.e. pick c minimizing f(S\{c}).
	for pos := n - 1; pos >= 0; pos-- {
		bestC, bestF := -1, int32(0)
		for c := 0; c < n; c++ {
			bit := uint32(1) << c
			if s&bit == 0 {
				continue
			}
			if v := f[s&^bit]; bestC < 0 || v < bestF {
				bestC, bestF = c, v
			}
		}
		order[pos] = bestC
		s &^= uint32(1) << bestC
	}
	return order, nil
}

// frontierCuts returns cut[S] = the number of nets crossing the S / V∖S
// frontier (a net crosses iff S∩m ≠ ∅ and m∖S ≠ ∅), for every subset.
// Built incrementally: process subsets in increasing order, take the lowest
// set bit c as the "last added" cell, and adjust the predecessor's value
// over c's incident nets only. Such a net holds k = |S∩m| ≥ 1 pins of S and
// k−1 of S∖{c}: it starts crossing when k = 1 and stops when k = |m|. The
// table is built in buf when it is large enough.
func frontierCuts(nl *netlist.Netlist, buf []int32) ([]int32, error) {
	n := nl.NumCells()
	if n > MaxCells {
		return nil, fmt.Errorf("exact: %d cells exceeds MaxCells = %d", n, MaxCells)
	}
	masks := netMasks(nl)
	type incident struct {
		mask uint32
		size int
	}
	nets := make([][]incident, n)
	for c := range nets {
		for _, netID := range nl.CellNets(c) {
			m := masks[netID]
			nets[c] = append(nets[c], incident{m, bits.OnesCount32(m)})
		}
	}
	full := uint32(1)<<n - 1
	cut := table(buf, int(full)+1)
	cut[0] = 0
	for s := uint32(1); s <= full; s++ {
		c := bits.TrailingZeros32(s)
		v := cut[s&^(uint32(1)<<c)]
		for _, e := range nets[c] {
			switch bits.OnesCount32(e.mask & s) {
			case 1:
				v++
			case e.size:
				v--
			}
		}
		cut[s] = v
	}
	return cut, nil
}

// solve fills the DP table f[S] = optimal max-gap-cut over arrangements of
// exactly the cells in S (as a prefix of the final arrangement), in the
// solver's tables.
func (sv *Solver) solve(nl *netlist.Netlist) ([]int32, error) {
	cut, err := frontierCuts(nl, sv.cut)
	if err != nil {
		return nil, err
	}
	n := nl.NumCells()
	full := uint32(1)<<n - 1
	f := table(sv.f, int(full)+1)
	sv.cut, sv.f = cut, f
	f[0] = 0
	for s := uint32(1); s <= full; s++ {
		best := int32(1) << 30
		rem := s
		for rem != 0 {
			c := bits.TrailingZeros32(rem)
			rem &^= uint32(1) << c
			if v := f[s&^(uint32(1)<<c)]; v < best {
				best = v
			}
		}
		f[s] = max(cut[s], best)
	}
	return f, nil
}

// netMasks returns each net's pin set as a bitmask.
func netMasks(nl *netlist.Netlist) []uint32 {
	masks := make([]uint32, nl.NumNets())
	for i := range masks {
		var m uint32
		for _, c := range nl.Net(i) {
			m |= uint32(1) << c
		}
		masks[i] = m
	}
	return masks
}
