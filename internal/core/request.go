// Package core implements Aegaeon's contribution: the token-level scheduler
// of §4 — grouped-FCFS prefill scheduling (Algorithm 1), weighted
// round-robin decoding scheduling with analytic time quotas (Algorithm 2,
// Eqs. 2–3), prefill/decoding disaggregation, and the dispatch policies that
// tie them to preemptive auto-scaling.
package core

import (
	"time"

	"aegaeon/internal/kvcache"
	"aegaeon/internal/model"
	"aegaeon/internal/prefixcache"
	"aegaeon/internal/sim"
	"aegaeon/internal/workload"
)

// Request is the runtime state of one inference request inside the system.
type Request struct {
	ID    string
	Model *model.Model

	Arrival      sim.Time
	InputTokens  int
	OutputTokens int // total tokens to produce, including the first

	// Priority is the request's service tier: overload shedding removes low
	// tiers first and degraded prefill scheduling serves high tiers first.
	Priority workload.Priority
	// Deadline is the request's first-token deadline (arrival + TTFT target
	// under its SLO), precomputed at submission for deadline-aware queue
	// ordering and the overload reaper.
	Deadline sim.Time

	// TokenTimes[i] is the completion time of token i. Token 0 is produced
	// by prefill; tokens 1..OutputTokens-1 by decoding steps.
	TokenTimes []sim.Time

	Seq  *kvcache.Sequence
	Done bool

	// Failed marks a request the system gave up on (no surviving capacity
	// after a crash): it is terminal, cleanly rejected, and never emits
	// further tokens. FailReason says why.
	Failed     bool
	FailReason string

	// aborted marks a request whose client went away (gateway disconnect).
	// Terminal like Failed, but initiated from outside the scheduler.
	aborted bool

	// OnToken, when non-nil, is invoked synchronously on the simulation
	// goroutine as each token's completion time is recorded: token 0 from
	// prefill, the rest from decoding steps. Callbacks must not block —
	// the live gateway hands tokens off to a buffered channel.
	OnToken func(i int, at sim.Time)
	// OnDone, when non-nil, is invoked once when the request finishes.
	OnDone func(r *Request)

	// live marks requests admitted via SubmitLive: they are not retained
	// for batch Finalize reporting; their fate is judged into the SLO ledger
	// when they end, so a long-running server stays bounded.
	live bool

	// SessionID and Segments carry the conversation identity and the
	// deterministic prompt content from the workload layer; the prefix cache
	// matches prompts through them. Empty Segments means opaque content.
	SessionID string
	Segments  []workload.PromptSeg

	// prefixHit is the pinned prefix-cache match being reused by the current
	// prefill attempt (nil when none). PrefixMatched is the matched token
	// count of the *last successful* prefill, for reporting.
	prefixHit     *prefixcache.Hit
	PrefixMatched int

	// Latency breakdown bookkeeping (Fig. 14).
	prefillStart sim.Time
	prefillEnd   sim.Time
	decodeExec   time.Duration
	finished     sim.Time
}

func newRequest(wr workload.Request, m *model.Model) *Request {
	return &Request{
		ID:           wr.ID,
		Model:        m,
		Arrival:      wr.Arrival,
		InputTokens:  wr.InputTokens,
		OutputTokens: wr.OutputTokens,
		Priority:     wr.Priority,
		SessionID:    wr.SessionID,
		Segments:     wr.Segments,
	}
}

// recordToken appends a token completion time and fires the OnToken hook.
// All token emission funnels through here so live streaming observes every
// token exactly once, in order — and so terminal requests (failed or
// aborted) emit nothing more, even from compute steps already in flight
// when they became terminal.
func (r *Request) recordToken(at sim.Time) {
	if r.Failed || r.aborted {
		return
	}
	r.TokenTimes = append(r.TokenTimes, at)
	if r.OnToken != nil {
		r.OnToken(len(r.TokenTimes)-1, at)
	}
}

// terminal reports whether the request has reached a terminal state: served
// (Done), cleanly rejected (Failed), or cancelled by its client (aborted).
// Exactly one of the three holds for a terminal request.
func (r *Request) terminal() bool { return r.Done || r.Failed || r.aborted }

// Aborted reports whether the request was cancelled by its client.
func (r *Request) Aborted() bool { return r.aborted }

// Generated returns the number of tokens produced so far.
func (r *Request) Generated() int { return len(r.TokenTimes) }

// RemainingTokens returns how many tokens are still to be produced.
func (r *Request) RemainingTokens() int { return r.OutputTokens - len(r.TokenTimes) }

// ContextTokens returns the current attention context length (prompt plus
// generated tokens), which drives the Eq. 6 decode cost.
func (r *Request) ContextTokens() int64 {
	return int64(r.InputTokens + len(r.TokenTimes))
}

// ProjectedTokens returns the KV footprint in tokens the request will reach
// by completion — used for capacity-derived batch limits (Algorithm 2).
func (r *Request) ProjectedTokens() int64 {
	return int64(r.InputTokens + r.OutputTokens)
}
