package main

import (
	"fmt"
	"sort"
	"time"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// recorder collects the run's measurements: timing samples by name
// (reported as medians), and values set once. Counts are taken on the
// first pass and must repeat on every later one, which is what lets a
// reader compare them across runs of one seed.
type recorder struct {
	samples map[string][]float64
	// wall holds every sample as the clock read it, before rescale.
	wall   map[string][]float64
	units  map[string]string
	values map[string]float64
	order  []string
	// pending names the samples taken since the last rescale.
	pending []sampleRef
	// mismatched lists counts that differed between passes of one run.
	mismatched []string
}

type sampleRef struct {
	name string
	i    int
}

func newRecorder() *recorder {
	return &recorder{samples: map[string][]float64{}, wall: map[string][]float64{},
		units: map[string]string{}, values: map[string]float64{}}
}

func (r *recorder) note(name, unit string) {
	if _, ok := r.units[name]; !ok {
		r.units[name] = unit
		r.order = append(r.order, name)
	}
}

// sample adds one observation of a metric reported as a median.
func (r *recorder) sample(name, unit string, v float64) {
	r.note(name, unit)
	r.pending = append(r.pending, sampleRef{name, len(r.samples[name])})
	r.samples[name] = append(r.samples[name], v)
	r.wall[name] = append(r.wall[name], v)
}

// rescale converts the samples taken since the previous call from
// wall-clock to reference units: times are multiplied by factor, rates
// divided by it, everything else is left alone.
func (r *recorder) rescale(factor float64) {
	for _, p := range r.pending {
		switch r.units[p.name] {
		case "s", "ms", "us", "ns":
			r.samples[p.name][p.i] *= factor
		case "1/s":
			r.samples[p.name][p.i] /= factor
		}
	}
	r.pending = r.pending[:0]
}

// seconds adds a duration sample in seconds.
func (r *recorder) seconds(name string, d time.Duration) { r.sample(name, "s", d.Seconds()) }

// set records a value reported as is, replacing any earlier one.
func (r *recorder) set(name, unit string, v float64) {
	r.note(name, unit)
	r.values[name] = v
}

// count records a deterministic count: the first pass sets it, later
// passes must agree.
func (r *recorder) count(name string, v int) {
	if old, ok := r.values[name]; ok {
		if old != float64(v) {
			r.mismatched = append(r.mismatched, fmt.Sprintf("%s: %v then %d", name, old, v))
		}
		return
	}
	r.set(name, "count", float64(v))
}

// result folds samples to medians; order lists the names as first seen.
func (r *recorder) result() map[string]metric {
	out := map[string]metric{}
	for _, name := range r.order {
		if v, ok := r.values[name]; ok {
			out[name] = metric{Value: v, Unit: r.units[name]}
		} else {
			out[name] = metric{Value: median(r.samples[name]), Unit: r.units[name]}
		}
	}
	return out
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for an empty slice).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[lo+1]*frac
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(xs, n=4) does (exclusive method), which is what
// the acceptance check of the benchmark uses for a metric's spread.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(i int) float64 { // i-th of 4 cut points
		j, delta := i*(n+1)/4, i*(n+1)%4
		j = min(max(j, 1), n-1)
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}
