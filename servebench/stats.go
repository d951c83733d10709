package main

import (
	"math"
	"sort"
	"time"
)

// samples is a latency series in milliseconds.
type samples []float64

func (s *samples) add(d time.Duration) { *s = append(*s, float64(d.Nanoseconds())/1e6) }

// quantile is the nearest-rank quantile of the series (q in [0,1]); 0
// for an empty series.
func (s samples) quantile(q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	c := append([]float64(nil), s...)
	sort.Float64s(c)
	i := int(math.Ceil(q*float64(len(c)))) - 1
	if i < 0 {
		i = 0
	}
	return c[i]
}

func (s samples) p50() float64 { return s.quantile(0.50) }

func (s samples) mean() float64 {
	if len(s) == 0 {
		return 0
	}
	t := 0.0
	for _, v := range s {
		t += v
	}
	return t / float64(len(s))
}

// beyond is how many samples lie above the q-quantile's rank, the
// support of that estimate.
func (s samples) beyond(q float64) int {
	return len(s) - int(math.Ceil(q*float64(len(s))))
}

func median(xs []float64) float64 { return samples(xs).p50() }

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
