// Package slo implements the per-token SLO semantics of §2.1 and Fig. 3:
// token i of a request carries deadline arrival + TTFT + i·TBT, output can
// be buffered (a token generated early banks slack for later stalls), and
// SLO attainment is the fraction of token generations meeting deadlines.
package slo

import (
	"fmt"
	"sync"
	"time"

	"aegaeon/internal/metrics"
)

// SLO is a (TTFT, TBT) target pair.
type SLO struct {
	TTFT time.Duration
	TBT  time.Duration
}

// Default returns the paper's production targets (§7.1): TTFT 10 s,
// TBT 100 ms.
func Default() SLO { return SLO{TTFT: 10 * time.Second, TBT: 100 * time.Millisecond} }

// Scale multiplies both targets by f (Fig. 13's 0.5×/0.3×/0.2× settings).
func (s SLO) Scale(f float64) SLO {
	return SLO{
		TTFT: time.Duration(float64(s.TTFT) * f),
		TBT:  time.Duration(float64(s.TBT) * f),
	}
}

// ScaleTTFT scales only the TTFT target (Fig. 17 right).
func (s SLO) ScaleTTFT(f float64) SLO {
	return SLO{TTFT: time.Duration(float64(s.TTFT) * f), TBT: s.TBT}
}

// ScaleTBT scales only the TBT target (Fig. 17 left).
func (s SLO) ScaleTBT(f float64) SLO {
	return SLO{TTFT: s.TTFT, TBT: time.Duration(float64(s.TBT) * f)}
}

func (s SLO) String() string { return fmt.Sprintf("TTFT=%v TBT=%v", s.TTFT, s.TBT) }

// Deadline returns the generation deadline of token i (0-based) for a
// request that arrived at the given time.
func (s SLO) Deadline(arrival time.Duration, i int) time.Duration {
	return arrival + s.TTFT + time.Duration(i)*s.TBT
}

// maxTTFTSamples bounds the tracker's TTFT quantile reservoir so long-lived
// trackers (the live monitoring path observes them for the whole life of a
// gateway) hold flat memory.
const maxTTFTSamples = 8192

// Tracker accumulates token-level attainment across requests. It is safe
// for concurrent use: the simulation goroutine observes while HTTP debug
// handlers read attainment live. The zero value is ready to use.
type Tracker struct {
	mu           sync.Mutex
	tokensMet    uint64
	tokensMissed uint64
	requests     uint64
	reqAllMet    uint64

	ttftSum   time.Duration
	ttftCount uint64
	ttftMet   uint64
	ttftCDF   *metrics.SafeCDF
}

// NewTracker returns an empty tracker.
func NewTracker() *Tracker { return &Tracker{} }

// ObserveRequest records all token generation times of one completed (or
// partially completed) request against the SLO. times[i] is the completion
// time of token i; arrival is the request arrival time.
func (t *Tracker) ObserveRequest(s SLO, arrival time.Duration, times []time.Duration) {
	t.observe(s, arrival, times, 0)
}

// observe judges one request — its generated tokens plus dropped tokens that
// will never be generated — and returns the met and missed token counts.
func (t *Tracker) observe(s SLO, arrival time.Duration, times []time.Duration, dropped int) (met, missed uint64) {
	allMet := dropped == 0
	for i, at := range times {
		if at <= s.Deadline(arrival, i) {
			met++
		} else {
			allMet = false
		}
	}
	missed = uint64(len(times)) - met + uint64(dropped)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.requests++
	t.tokensMet += met
	t.tokensMissed += missed
	if len(times) > 0 {
		ttft := times[0] - arrival
		t.ttftSum += ttft
		t.ttftCount++
		if t.ttftCDF == nil {
			t.ttftCDF = metrics.NewSafeCDF(maxTTFTSamples)
		}
		t.ttftCDF.AddDuration(ttft)
		if ttft <= s.TTFT {
			t.ttftMet++
		}
	} else {
		allMet = false // request produced nothing: count as violated
	}
	if allMet {
		t.reqAllMet++
	}
	return met, missed
}

// ObserveDropped records one token that will never be generated within the
// measurement window (its request was rejected or starved): a missed token,
// so saturated systems cannot launder failures by never finishing work. The
// request itself is counted by ObserveRequest.
func (t *Tracker) ObserveDropped() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.tokensMissed++
}

// Merge folds o's observations into t: the counters add and o's retained
// TTFT samples join t's reservoir (quantiles over merged reservoirs are
// estimates once either was subsampled).
func (t *Tracker) Merge(o *Tracker) {
	o.mu.Lock()
	met, missed, reqs, allMet := o.tokensMet, o.tokensMissed, o.requests, o.reqAllMet
	sum, count, ttftMet := o.ttftSum, o.ttftCount, o.ttftMet
	var samples []float64
	if o.ttftCDF != nil {
		samples = o.ttftCDF.Samples()
	}
	o.mu.Unlock()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.tokensMet += met
	t.tokensMissed += missed
	t.requests += reqs
	t.reqAllMet += allMet
	t.ttftSum += sum
	t.ttftCount += count
	t.ttftMet += ttftMet
	if len(samples) > 0 && t.ttftCDF == nil {
		t.ttftCDF = metrics.NewSafeCDF(maxTTFTSamples)
	}
	for _, v := range samples {
		t.ttftCDF.Add(v)
	}
}

// Attainment returns the fraction of tokens that met their deadlines in
// [0,1]. With no observations it returns 1.
func (t *Tracker) Attainment() float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	total := t.tokensMet + t.tokensMissed
	if total == 0 {
		return 1
	}
	return float64(t.tokensMet) / float64(total)
}

// RequestAttainment returns the fraction of requests with every token on
// time.
func (t *Tracker) RequestAttainment() float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.requests == 0 {
		return 1
	}
	return float64(t.reqAllMet) / float64(t.requests)
}

// TTFTAttainment returns the fraction of first tokens within the TTFT
// target.
func (t *Tracker) TTFTAttainment() float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.ttftCount == 0 {
		return 1
	}
	return float64(t.ttftMet) / float64(t.ttftCount)
}

// MeanTTFT returns the average time-to-first-token.
func (t *Tracker) MeanTTFT() time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.ttftCount == 0 {
		return 0
	}
	return t.ttftSum / time.Duration(t.ttftCount)
}

// TTFTQuantile returns the q-th quantile of observed TTFTs (0 if none).
// Beyond maxTTFTSamples observations the quantile is estimated from a
// uniform reservoir rather than the full sample set.
func (t *Tracker) TTFTQuantile(q float64) time.Duration {
	t.mu.Lock()
	cdf := t.ttftCDF
	t.mu.Unlock()
	if cdf == nil || cdf.N() == 0 {
		return 0
	}
	return time.Duration(cdf.Quantile(q) * float64(time.Second))
}

// Tokens returns (met, missed) counts.
func (t *Tracker) Tokens() (met, missed uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.tokensMet, t.tokensMissed
}

// Requests returns the number of requests observed.
func (t *Tracker) Requests() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.requests
}
