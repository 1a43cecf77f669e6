package metrics

import (
	"math"
	"sync"
	"testing"
	"time"
)

func TestSafeCDFEmpty(t *testing.T) {
	s := NewSafeCDF(16)
	if s.N() != 0 || s.Seen() != 0 {
		t.Fatalf("empty reservoir: N=%d Seen=%d", s.N(), s.Seen())
	}
	if got := s.Quantile(0.5); !math.IsNaN(got) {
		t.Fatalf("empty Quantile = %v, want NaN", got)
	}
	if got := s.Mean(); !math.IsNaN(got) {
		t.Fatalf("empty Mean = %v, want NaN", got)
	}
	if got := s.Samples(); len(got) != 0 {
		t.Fatalf("empty Samples = %v", got)
	}
}

func TestSafeCDFSingleSample(t *testing.T) {
	s := NewSafeCDF(16)
	s.AddDuration(250 * time.Millisecond)
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if got := s.Quantile(q); got != 0.25 {
			t.Fatalf("Quantile(%v) = %v, want 0.25", q, got)
		}
	}
	if got := s.Mean(); got != 0.25 {
		t.Fatalf("Mean = %v, want 0.25", got)
	}
	if s.N() != 1 || s.Seen() != 1 {
		t.Fatalf("N=%d Seen=%d", s.N(), s.Seen())
	}
}

func TestSafeCDFHeavyDuplicates(t *testing.T) {
	// 100x the cap, every sample identical: the reservoir must stay at the
	// cap, remember how many it saw, and report the duplicate exactly at
	// every quantile (any unbiased subsample of a constant is constant).
	const cap = 64
	s := NewSafeCDF(cap)
	for i := 0; i < 100*cap; i++ {
		s.Add(3.5)
	}
	if s.N() != cap {
		t.Fatalf("N = %d, want cap %d", s.N(), cap)
	}
	if s.Seen() != 100*cap {
		t.Fatalf("Seen = %d, want %d", s.Seen(), 100*cap)
	}
	for _, q := range []float64{0, 0.01, 0.5, 0.99, 1} {
		if got := s.Quantile(q); got != 3.5 {
			t.Fatalf("Quantile(%v) = %v, want 3.5", q, got)
		}
	}
	if got := s.Mean(); got != 3.5 {
		t.Fatalf("Mean = %v, want 3.5", got)
	}
}

func TestSafeCDFReservoirStaysInRange(t *testing.T) {
	// Feed an increasing ramp through a small reservoir: every retained
	// sample must be one of the inputs, and the quantiles must stay inside
	// the observed range.
	s := NewSafeCDF(32)
	for i := 1; i <= 10000; i++ {
		s.Add(float64(i))
	}
	for _, v := range s.Samples() {
		if v < 1 || v > 10000 || v != math.Trunc(v) {
			t.Fatalf("retained sample %v not among inputs", v)
		}
	}
	if p50 := s.Quantile(0.5); p50 < 1 || p50 > 10000 {
		t.Fatalf("p50 = %v outside input range", p50)
	}
}

func TestSafeCDFSamplesIsACopy(t *testing.T) {
	s := NewSafeCDF(8)
	s.Add(1)
	got := s.Samples()
	got[0] = 999
	if s.Quantile(0.5) == 999 {
		t.Fatal("Samples() exposed the internal buffer")
	}
}

func TestSafeCDFUnboundedZeroValue(t *testing.T) {
	var s SafeCDF
	for i := 0; i < 100; i++ {
		s.Add(float64(i))
	}
	if s.N() != 100 {
		t.Fatalf("unbounded zero value retained %d, want 100", s.N())
	}
}

func TestSafeCDFConcurrent(t *testing.T) {
	s := NewSafeCDF(128)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				s.Add(float64(i))
				_ = s.Quantile(0.5)
				_ = s.Samples()
			}
		}()
	}
	wg.Wait()
	if s.Seen() != 4000 {
		t.Fatalf("Seen = %d, want 4000", s.Seen())
	}
}

// TestSafeCDFDeterministicPastCap feeds the same stream through two
// reservoirs far past their cap: they must retain the same samples, so their
// quantiles agree exactly.
func TestSafeCDFDeterministicPastCap(t *testing.T) {
	a, b := NewSafeCDF(64), NewSafeCDF(64)
	for i := 0; i < 50*64; i++ {
		v := float64((i * 7919) % 1000)
		a.Add(v)
		b.Add(v)
	}
	for _, q := range []float64{0.01, 0.5, 0.9, 0.99} {
		if qa, qb := a.Quantile(q), b.Quantile(q); qa != qb {
			t.Fatalf("Quantile(%v): %v vs %v", q, qa, qb)
		}
	}
	if ma, mb := a.Mean(), b.Mean(); ma != mb {
		t.Fatalf("Mean: %v vs %v", ma, mb)
	}
}

// TestSafeCDFAddAllocationFree pins that a reservoir past its cap adds
// without allocating: slomon builds fresh sketches every epoch.
func TestSafeCDFAddAllocationFree(t *testing.T) {
	s := NewSafeCDF(16)
	for i := 0; i < 16; i++ {
		s.Add(float64(i))
	}
	if n := testing.AllocsPerRun(1000, func() { s.Add(1) }); n != 0 {
		t.Fatalf("Add past the cap allocates %v times", n)
	}
}
