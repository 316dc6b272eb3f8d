package main

import (
	"math"
	"sort"
	"time"
)

// sample collects one timing per operation.
type sample []float64

func (s *sample) add(d time.Duration) { *s = append(*s, float64(d)) }

// quantile returns the nearest-rank q-quantile (0 <= q <= 1) in the
// sample's own unit, or 0 for an empty sample.
func (s sample) quantile(q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	v := append([]float64(nil), s...)
	sort.Float64s(v)
	i := int(math.Ceil(q*float64(len(v))-1e-9)) - 1
	return v[min(max(i, 0), len(v)-1)]
}

func (s sample) median() float64 { return s.quantile(0.5) }

func (s sample) ms(q float64) float64 { return s.quantile(q) / 1e6 }

// tail returns the highest of p99, p90 and p50 that still has at least ten
// samples beyond it, with its label ("p99", ...). A sample too small for
// even p50 reports the maximum as "max".
func (s sample) tail() (string, float64) {
	for _, p := range []struct {
		name string
		q    float64
	}{{"p99", 0.99}, {"p90", 0.90}, {"p50", 0.50}} {
		rank := int(math.Ceil(p.q*float64(len(s)) - 1e-9)) // nearest rank of the percentile
		if len(s)-rank >= 10 {
			return p.name, s.quantile(p.q)
		}
	}
	return "max", s.quantile(1)
}
