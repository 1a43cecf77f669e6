// Package metrics provides the measurement plumbing behind the evaluation
// figures: streaming CDFs (Figs. 1a, 15), time series samplers (Figs. 1b,
// 4, 18), and the request latency breakdown accumulator (Fig. 14).
package metrics

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
	"strings"
	"sync"
	"time"
)

// CDF collects samples and reports quantiles and distribution points.
type CDF struct {
	samples []float64
	sorted  bool
}

// Add appends a sample.
func (c *CDF) Add(v float64) {
	c.samples = append(c.samples, v)
	c.sorted = false
}

// AddDuration appends a duration sample in seconds.
func (c *CDF) AddDuration(d time.Duration) { c.Add(d.Seconds()) }

// N returns the number of samples.
func (c *CDF) N() int { return len(c.samples) }

func (c *CDF) sortOnce() {
	if !c.sorted {
		sort.Float64s(c.samples)
		c.sorted = true
	}
}

// Quantile returns the q-th quantile (0 <= q <= 1) of the samples; NaN if
// empty or if q is NaN.
func (c *CDF) Quantile(q float64) float64 {
	if len(c.samples) == 0 || math.IsNaN(q) {
		return math.NaN()
	}
	c.sortOnce()
	if q <= 0 {
		return c.samples[0]
	}
	if q >= 1 {
		return c.samples[len(c.samples)-1]
	}
	pos := q * float64(len(c.samples)-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= len(c.samples) {
		return c.samples[lo]
	}
	return c.samples[lo]*(1-frac) + c.samples[lo+1]*frac
}

// Mean returns the sample mean; NaN if empty.
func (c *CDF) Mean() float64 {
	if len(c.samples) == 0 {
		return math.NaN()
	}
	var s float64
	for _, v := range c.samples {
		s += v
	}
	return s / float64(len(c.samples))
}

// FractionBelow returns the fraction of samples <= x.
func (c *CDF) FractionBelow(x float64) float64 {
	if len(c.samples) == 0 {
		return 0
	}
	c.sortOnce()
	i := sort.SearchFloat64s(c.samples, math.Nextafter(x, math.Inf(1)))
	return float64(i) / float64(len(c.samples))
}

// Points returns n evenly spaced (value, cumulative fraction) points, for
// rendering a CDF curve. n <= 0 returns nil; n == 1 returns the single
// (max, 1) point rather than dividing by n-1.
func (c *CDF) Points(n int) [][2]float64 {
	if len(c.samples) == 0 || n <= 0 {
		return nil
	}
	c.sortOnce()
	if n == 1 {
		return [][2]float64{{c.samples[len(c.samples)-1], 1}}
	}
	out := make([][2]float64, 0, n)
	for i := 0; i < n; i++ {
		q := float64(i) / float64(n-1)
		out = append(out, [2]float64{c.Quantile(q), q})
	}
	return out
}

// SafeCDF is a concurrency-safe quantile tracker for live telemetry (the
// gateway's TTFT/TBT export): a mutex-guarded CDF with optional reservoir
// subsampling (algorithm R) so a long-running server's memory stays
// bounded. The zero value is usable and unbounded.
//
// Each reservoir draws from its own generator, held by value and seeded with
// the same constant, so two runs that add the same samples retain the same
// ones and report the same quantiles.
type SafeCDF struct {
	mu   sync.Mutex
	cdf  CDF
	max  int
	seen uint64
	rng  rand.PCG // zero value: the constant seed (0, 0)
}

// NewSafeCDF returns a tracker retaining at most maxSamples via uniform
// reservoir sampling (maxSamples <= 0 means unbounded).
func NewSafeCDF(maxSamples int) *SafeCDF { return &SafeCDF{max: maxSamples} }

// Add records a sample.
func (s *SafeCDF) Add(v float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.seen++
	if s.max <= 0 || len(s.cdf.samples) < s.max {
		s.cdf.Add(v)
		return
	}
	// Reservoir replacement: v displaces a uniformly chosen retained
	// sample with probability max/seen. The reservoir's ordering is
	// irrelevant (Quantile sorts), so replacing any slot is unbiased.
	if j := s.rng.Uint64() % s.seen; j < uint64(s.max) {
		s.cdf.samples[j] = v
		s.cdf.sorted = false
	}
}

// AddDuration records a duration sample in seconds.
func (s *SafeCDF) AddDuration(d time.Duration) { s.Add(d.Seconds()) }

// N returns the number of retained samples.
func (s *SafeCDF) N() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.cdf.samples)
}

// Seen returns the number of samples ever recorded (including subsampled
// ones).
func (s *SafeCDF) Seen() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.seen
}

// Quantile returns the q-th quantile of the retained samples; NaN if empty.
func (s *SafeCDF) Quantile(q float64) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cdf.Quantile(q)
}

// Mean returns the retained-sample mean; NaN if empty.
func (s *SafeCDF) Mean() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cdf.Mean()
}

// Samples returns a copy of the retained samples, in no particular order —
// for merging two reservoirs (e.g. rotating epoch sketches) into one CDF.
func (s *SafeCDF) Samples() []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]float64(nil), s.cdf.samples...)
}

// TimeSeries samples a value at fixed intervals of virtual time.
type TimeSeries struct {
	Interval time.Duration
	Values   []float64
}

// NewTimeSeries creates a series with the given sampling interval.
func NewTimeSeries(interval time.Duration) *TimeSeries {
	if interval <= 0 {
		panic("metrics: non-positive sampling interval")
	}
	return &TimeSeries{Interval: interval}
}

// Append adds the next sample.
func (ts *TimeSeries) Append(v float64) { ts.Values = append(ts.Values, v) }

// Mean returns the series mean; NaN if empty.
func (ts *TimeSeries) Mean() float64 {
	if len(ts.Values) == 0 {
		return math.NaN()
	}
	var s float64
	for _, v := range ts.Values {
		s += v
	}
	return s / float64(len(ts.Values))
}

// Max returns the series maximum; NaN if empty.
func (ts *TimeSeries) Max() float64 {
	if len(ts.Values) == 0 {
		return math.NaN()
	}
	m := ts.Values[0]
	for _, v := range ts.Values[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

// BreakdownStage identifies one component of request latency (Fig. 14).
type BreakdownStage int

const (
	PrefillWaiting BreakdownStage = iota
	PrefillExecution
	DecodingWaiting
	DecodingExecution
	ControlOverhead
	DataOverhead
	numStages
)

var stageNames = [...]string{
	"Prefill Waiting", "Prefill Execution", "Decoding Waiting",
	"Decoding Execution", "Control Overhead", "Data Overhead",
}

func (s BreakdownStage) String() string {
	if int(s) < len(stageNames) {
		return stageNames[s]
	}
	return fmt.Sprintf("stage(%d)", int(s))
}

// Breakdown accumulates time per latency stage across all requests.
type Breakdown struct {
	total [numStages]time.Duration
}

// Add accrues d to the stage.
func (b *Breakdown) Add(s BreakdownStage, d time.Duration) {
	if d < 0 {
		d = 0
	}
	b.total[s] += d
}

// Fractions returns each stage's share of the total, in stage order. With a
// zero total (no time accrued anywhere) every share is 0, never NaN.
func (b *Breakdown) Fractions() []float64 {
	var sum time.Duration
	for _, v := range b.total {
		sum += v
	}
	out := make([]float64, numStages)
	if sum == 0 {
		return out
	}
	for i, v := range b.total {
		out[i] = float64(v) / float64(sum)
	}
	return out
}

// Total returns the accumulated time for a stage.
func (b *Breakdown) Total(s BreakdownStage) time.Duration { return b.total[s] }

// Stages returns all stage labels in order.
func Stages() []string { return append([]string(nil), stageNames[:]...) }

// Histogram is a concurrency-safe fixed-bucket histogram in the Prometheus
// style: cumulative bucket counts over sorted upper bounds plus a +Inf
// overflow, a running sum, and a total count. Unlike SafeCDF's reservoir it
// never subsamples, so exported bucket counts are exact — what a scrape-based
// TTFT/TBT SLO burn-rate alert needs.
type Histogram struct {
	mu     sync.Mutex
	bounds []float64 // sorted upper bounds, exclusive of +Inf
	counts []uint64  // per-bucket (non-cumulative); len(bounds)+1 with overflow
	sum    float64
	total  uint64
}

// NewHistogram builds a histogram over the given bucket upper bounds, which
// must be sorted ascending and non-empty.
func NewHistogram(bounds ...float64) *Histogram {
	if len(bounds) == 0 {
		panic("metrics: histogram needs at least one bucket bound")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("metrics: histogram bounds not ascending at %d", i))
		}
	}
	return &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]uint64, len(bounds)+1),
	}
}

// Observe records one sample. NaN samples are dropped (they would poison the
// sum and fit no bucket).
func (h *Histogram) Observe(v float64) {
	if math.IsNaN(v) {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v: le-style buckets
	h.counts[i]++
	h.sum += v
	h.total++
}

// ObserveDuration records a duration sample in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// HistogramSnapshot is a consistent view of a histogram for export.
type HistogramSnapshot struct {
	Bounds     []float64 // upper bounds, ascending (no +Inf entry)
	Cumulative []uint64  // cumulative counts per bound; same length as Bounds
	Sum        float64
	Count      uint64
}

// Snapshot returns the cumulative bucket counts, sum, and total count.
func (h *Histogram) Snapshot() HistogramSnapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	s := HistogramSnapshot{
		Bounds:     append([]float64(nil), h.bounds...),
		Cumulative: make([]uint64, len(h.bounds)),
		Sum:        h.sum,
		Count:      h.total,
	}
	var cum uint64
	for i := range h.bounds {
		cum += h.counts[i]
		s.Cumulative[i] = cum
	}
	return s
}

// ExponentialBounds returns n bucket bounds starting at start, each factor
// times the previous — the standard latency bucket layout.
func ExponentialBounds(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n <= 0 {
		panic("metrics: invalid exponential bucket spec")
	}
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// String renders the breakdown as percentages.
func (b *Breakdown) String() string {
	fr := b.Fractions()
	parts := make([]string, numStages)
	for i, f := range fr {
		parts[i] = fmt.Sprintf("%s %.1f%%", stageNames[i], 100*f)
	}
	return strings.Join(parts, ", ")
}
