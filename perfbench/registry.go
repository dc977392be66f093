package main

import (
	"math"
	"strconv"

	"repro/pkg/relmerge"
)

// series is one metric name summed over all its label sets: a counter's
// value, or a histogram's count, sum and per-bucket counts.
type series struct {
	value   float64
	count   int64
	sum     float64
	bounds  []float64 // bucket upper bounds; the last is +Inf
	buckets []int64   // non-cumulative counts
}

// regSnap is a registry reading keyed by metric name.
type regSnap map[string]*series

func snapshot(reg *relmerge.Registry) regSnap {
	out := regSnap{}
	for _, p := range relmerge.Snapshot(reg) {
		s := out[p.Name]
		if s == nil {
			s = &series{}
			out[p.Name] = s
		}
		s.value += p.Value
		s.count += p.Count
		s.sum += p.Sum
		if len(p.Buckets) == 0 {
			continue
		}
		if s.buckets == nil {
			s.buckets = make([]int64, len(p.Buckets))
			s.bounds = make([]float64, len(p.Buckets))
			for i, b := range p.Buckets {
				s.bounds[i] = math.Inf(1)
				if v, err := strconv.ParseFloat(b.LE, 64); err == nil {
					s.bounds[i] = v
				}
			}
		}
		prev := int64(0)
		for i, b := range p.Buckets {
			s.buckets[i] += b.Count - prev
			prev = b.Count
		}
	}
	return out
}

// sub returns the change from before to s.
func (s regSnap) sub(before regSnap) regSnap {
	out := regSnap{}
	for name, a := range s {
		d := &series{value: a.value, count: a.count, sum: a.sum, bounds: a.bounds}
		if a.buckets != nil {
			d.buckets = append([]int64(nil), a.buckets...)
		}
		if b := before[name]; b != nil {
			d.value -= b.value
			d.count -= b.count
			d.sum -= b.sum
			for i := range d.buckets {
				if i < len(b.buckets) {
					d.buckets[i] -= b.buckets[i]
				}
			}
		}
		out[name] = d
	}
	return out
}

// add accumulates another delta into s.
func (s regSnap) add(o regSnap) {
	for name, b := range o {
		a := s[name]
		if a == nil {
			a = &series{bounds: b.bounds}
			if b.buckets != nil {
				a.buckets = make([]int64, len(b.buckets))
			}
			s[name] = a
		}
		a.value += b.value
		a.count += b.count
		a.sum += b.sum
		for i := range a.buckets {
			a.buckets[i] += b.buckets[i]
		}
	}
}

func (s regSnap) val(name string) float64 {
	if a := s[name]; a != nil {
		return a.value
	}
	return 0
}

// hist merges the named histograms (same buckets) into one.
func (s regSnap) hist(names ...string) *series {
	out := &series{}
	for _, n := range names {
		a := s[n]
		if a == nil || a.buckets == nil {
			continue
		}
		if out.buckets == nil {
			out.bounds = a.bounds
			out.buckets = make([]int64, len(a.buckets))
		}
		out.count += a.count
		out.sum += a.sum
		for i := range out.buckets {
			out.buckets[i] += a.buckets[i]
		}
	}
	return out
}

// quantile estimates the q-quantile of a histogram by linear interpolation
// inside the bucket holding it (the first bucket starts at 0; the overflow
// bucket reports its lower bound). Zero when the histogram is empty.
func (a *series) quantile(q float64) float64 {
	var total int64
	for _, c := range a.buckets {
		total += c
	}
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var cum int64
	for i, c := range a.buckets {
		if c == 0 || float64(cum+c) < rank {
			cum += c
			continue
		}
		lo := 0.0
		if i > 0 {
			lo = a.bounds[i-1]
		}
		hi := a.bounds[i]
		if math.IsInf(hi, 1) {
			return lo
		}
		return lo + (hi-lo)*(rank-float64(cum))/float64(c)
	}
	return a.bounds[len(a.bounds)-2]
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
