package slo

import (
	"sort"
	"sync"
	"time"

	"aegaeon/internal/workload"
)

// Ledger is the one cumulative account of request fates. Each fate is judged
// once, by Observe, into three views: the fleet Tracker, one Tracker per
// model, and met/missed token counters per service tier. Every cumulative
// attainment number — the batch report, per-tier overload reports, the
// cumulative block of the live SLO snapshot — reads one of these views. Safe
// for concurrent use; the zero value is ready to use.
type Ledger struct {
	fleet Tracker

	mu     sync.Mutex
	models map[string]*Tracker
	tiers  [workload.NumPriorities]struct{ met, missed uint64 }
}

// Observe judges one request's fate: times[i] is the generation time of
// token i, each judged against its deadline, and dropped counts tokens that
// will never be generated, each a miss. A request owing dropped tokens does
// not count as having met every deadline. The ledger does not retain times.
func (l *Ledger) Observe(model string, tier workload.Priority, s SLO, arrival time.Duration, times []time.Duration, dropped int) {
	met, missed := l.fleet.observe(s, arrival, times, dropped)
	l.mu.Lock()
	m := l.models[model]
	if m == nil {
		if l.models == nil {
			l.models = map[string]*Tracker{}
		}
		m = &Tracker{}
		l.models[model] = m
	}
	l.tiers[tier].met += met
	l.tiers[tier].missed += missed
	l.mu.Unlock()
	m.observe(s, arrival, times, dropped)
}

// Fleet returns the fleet-wide view.
func (l *Ledger) Fleet() *Tracker { return &l.fleet }

// Model returns the view of one model, or nil when no request of it has
// been judged.
func (l *Ledger) Model(name string) *Tracker {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.models[name]
}

// Models returns the names of the models with judged requests, sorted.
func (l *Ledger) Models() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]string, 0, len(l.models))
	for m := range l.models {
		out = append(out, m)
	}
	sort.Strings(out)
	return out
}

// Tier returns the met and missed token counts of one service tier.
func (l *Ledger) Tier(p workload.Priority) (met, missed uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.tiers[p].met, l.tiers[p].missed
}
