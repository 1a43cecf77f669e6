// Package prefixcache implements a global prefix cache over the slab-
// allocated KV tiers of internal/kvcache, in the spirit of Mooncake's
// KV-centric architecture: prompt prefixes that repeat across requests
// (multi-turn chat, agentic loops, shared system prompts) are retained after
// the owning request completes, indexed by chained block-aligned chunk
// hashes, and reused by later requests instead of being recomputed.
//
// The host (CPU DRAM) tier is the tier of record: every cached block holds a
// slab block in the shared CPU KV pool. Prefill instances additionally hold
// per-instance device copies of hot entries (promotion on reuse), which turn
// a PCIe copy into a cheaper on-device copy. Entries are reference-counted:
// a chain pinned by an in-flight prefill is never reclaimed, no matter the
// eviction pressure. Eviction is leaf-only (an entry with cached descendants
// is never removed, keeping every indexed chain contiguous from the prompt
// start) and deterministic: victims are chosen by a total order over
// (policy key, model, hash), never by map iteration order, so simulations
// replay identically.
package prefixcache

import (
	"fmt"
	"sort"
	"sync"

	"aegaeon/internal/decision"
	"aegaeon/internal/kvcache"
	"aegaeon/internal/memory"
	"aegaeon/internal/model"
	"aegaeon/internal/sim"
	"aegaeon/internal/workload"
)

// Policy selects the eviction victim ordering.
type Policy int

const (
	// PolicyLRU evicts the least-recently-used unpinned leaf.
	PolicyLRU Policy = iota
	// PolicyFreq evicts the leaf with the fewest lifetime hits, breaking
	// ties by recency — it keeps a frequently reused system prompt resident
	// through a burst of one-off conversations that would flush pure LRU.
	PolicyFreq
)

func (p Policy) String() string {
	if p == PolicyFreq {
		return "freq"
	}
	return "lru"
}

// ParsePolicy parses "lru", "freq", or "" (lru).
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "", "lru":
		return PolicyLRU, nil
	case "freq":
		return PolicyFreq, nil
	}
	return PolicyLRU, fmt.Errorf("prefixcache: unknown policy %q", s)
}

// Config parameterizes the cache.
type Config struct {
	// HostBytes caps host-tier residency. Zero defaults to a quarter of the
	// host KV pool: the pool is shared with sequence swap-out, and the cache
	// must not starve it.
	HostBytes int64
	// DeviceBytes caps per-instance device-tier residency. Zero defaults to
	// an eighth of the instance's GPU KV pool.
	DeviceBytes int64
	// Policy is the eviction policy.
	Policy Policy
	// PromoteAfter is the hit count at which an entry earns a device copy on
	// the instance that reused it. Zero defaults to 1 (promote on first
	// reuse).
	PromoteAfter int
	// Routing enables cache-aware placement in the serving layer. The cache
	// itself only records the flag; internal/core consults it.
	Routing bool
	// Journal, when non-nil, receives a decision record for every eviction
	// victim choice (host and device tiers). Nil keeps eviction
	// journal-free — the usual zero-overhead off path.
	Journal *decision.Journal
	// Clock supplies virtual time for journal records (nil stamps zero).
	Clock func() sim.Time
}

// classInfo caches per-model registration so promotion does not need the
// KV shape again.
type classInfo struct {
	label      string
	blockBytes int64
	shape      model.KVShape
}

// entry is one cached block: tokens [(depth-1)*B, depth*B) of some prompt,
// identified by the chained hash of everything up to and including it.
type entry struct {
	model string
	hash  uint64
	depth int // 1-based block count covered from the prompt start

	parent   *entry
	children int // entries whose parent is this one

	refs    int    // in-flight pins; >0 bars reclamation
	hits    uint64 // lifetime reuse count (Acquire matches)
	lastUse sim.Time

	class      string
	blockBytes int64
	hostBlock  memory.Block

	dev         map[string]memory.Block // instance -> device copy
	devChildren map[string]int          // instance -> children holding a device copy there
}

// Cache is the global prefix cache. All methods are safe for concurrent use:
// the simulator core runs single-threaded, but gateway scrape handlers and
// race tests touch the cache from other goroutines.
type Cache struct {
	mu   sync.Mutex
	cfg  Config
	host *kvcache.Cache

	devices   map[string]*kvcache.Cache
	devBudget map[string]int64

	block   int                          // tokens per block
	index   map[string]map[uint64]*entry // model -> chunk hash -> entry
	classes map[string]classInfo         // model -> host-registered class

	hostBytes int64
	devBytes  map[string]int64

	st       stats
	perModel map[string]*ModelStats
}

type stats struct {
	lookups, hits, tokensSaved, prefillTokens uint64
	inserts, insertedBlocks                   uint64
	hostEvictions, deviceEvictions            uint64
	promotions                                uint64
	deviceDrops                               uint64
}

// ModelStats is per-model reuse accounting.
type ModelStats struct {
	Lookups     uint64
	Hits        uint64
	TokensSaved uint64
}

// Stats is a point-in-time snapshot of the cache.
type Stats struct {
	Lookups       uint64
	Hits          uint64
	TokensSaved   uint64
	PrefillTokens uint64
	Inserts       uint64

	HostEvictions   uint64
	DeviceEvictions uint64
	Promotions      uint64
	DeviceDrops     uint64

	HostEntries   int
	DeviceCopies  int
	PinnedEntries int

	HostBytes   int64
	DeviceBytes int64

	PerModel              map[string]ModelStats
	DeviceBytesByInstance map[string]int64
}

// HitRatio returns Hits/Lookups (0 with no lookups).
func (s Stats) HitRatio() float64 {
	if s.Lookups == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Lookups)
}

// SavedRatio returns TokensSaved/PrefillTokens (0 with no lookups).
func (s Stats) SavedRatio() float64 {
	if s.PrefillTokens == 0 {
		return 0
	}
	return float64(s.TokensSaved) / float64(s.PrefillTokens)
}

// New builds a prefix cache whose host tier allocates from the given CPU KV
// cache. Block granularity is inherited from the host tier.
func New(cfg Config, host *kvcache.Cache) *Cache {
	if cfg.HostBytes <= 0 {
		cfg.HostBytes = host.Pool().Capacity() / 4
	}
	if cfg.PromoteAfter <= 0 {
		cfg.PromoteAfter = 1
	}
	return &Cache{
		cfg:       cfg,
		host:      host,
		devices:   map[string]*kvcache.Cache{},
		devBudget: map[string]int64{},
		block:     host.BlockTokens(),
		index:     map[string]map[uint64]*entry{},
		classes:   map[string]classInfo{},
		devBytes:  map[string]int64{},
		perModel:  map[string]*ModelStats{},
	}
}

// AttachDevice registers an instance's GPU KV cache as a device tier.
// Promotions for that instance allocate from it. The granularity must match
// the host tier's.
func (c *Cache) AttachDevice(instance string, dev *kvcache.Cache) {
	if dev.BlockTokens() != c.block {
		panic(fmt.Sprintf("prefixcache: device tier %s block tokens %d != host %d",
			instance, dev.BlockTokens(), c.block))
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.devices[instance] = dev
	b := c.cfg.DeviceBytes
	if b <= 0 {
		b = dev.Pool().Capacity() / 8
	}
	c.devBudget[instance] = b
}

// Routing reports whether cache-aware placement is enabled.
func (c *Cache) Routing() bool { return c.cfg.Routing }

// BlockTokens returns the cache's block granularity.
func (c *Cache) BlockTokens() int { return c.block }

func (c *Cache) modelStats(m string) *ModelStats {
	ms := c.perModel[m]
	if ms == nil {
		ms = &ModelStats{}
		c.perModel[m] = ms
	}
	return ms
}

// ensureClass registers the model's KV shape with the host tier once.
func (c *Cache) ensureClass(m string, shape model.KVShape) (classInfo, error) {
	if ci, ok := c.classes[m]; ok {
		return ci, nil
	}
	label, err := c.host.RegisterShape(shape)
	if err != nil {
		return classInfo{}, err
	}
	ci := classInfo{label: label, blockBytes: c.host.BlockBytes(label), shape: shape}
	c.classes[m] = ci
	return ci, nil
}

// walk returns the resident chain matching the first maxBlocks blocks of the
// prompt. Leaf-only eviction guarantees the chain is contiguous from the
// root, so the walk stops at the first absent chunk hash.
func (c *Cache) walk(m string, segs []workload.PromptSeg, maxBlocks int) []*entry {
	idx := c.index[m]
	if idx == nil || maxBlocks <= 0 {
		return nil
	}
	hashes := ChunkHashes(segs, maxBlocks, c.block)
	var chain []*entry
	for _, h := range hashes {
		e := idx[h]
		if e == nil {
			break
		}
		chain = append(chain, e)
	}
	return chain
}

// Hit is a pinned prefix match. The holder must call Release exactly when
// the reuse copy has been charged (or the request died); Release is
// idempotent.
type Hit struct {
	c        *Cache
	instance string
	chain    []*entry
	released bool

	// MatchedTokens is the prefix length served from the cache; prefill
	// skips these tokens.
	MatchedTokens int
	// DeviceTokens of those were already resident on the consuming
	// instance's device tier (contiguous from the prompt start).
	DeviceTokens int
	// HostBytes is the volume to copy host→device (the non-device-resident
	// part of the match); DeviceBytes the volume copied on-device.
	HostBytes   int64
	DeviceBytes int64
}

// Acquire looks up the longest cached prefix of a prompt about to prefill on
// instance, pins it, and returns it — or nil on a miss. The match is capped
// one token short of the prompt so at least one token always prefills (the
// model must produce output, and TTFT stays well-defined).
func (c *Cache) Acquire(instance, m string, shape model.KVShape, segs []workload.PromptSeg, tokens int, now sim.Time) *Hit {
	c.mu.Lock()
	defer c.mu.Unlock()

	c.st.lookups++
	c.st.prefillTokens += uint64(tokens)
	ms := c.modelStats(m)
	ms.Lookups++

	maxBlocks := (tokens - 1) / c.block
	chain := c.walk(m, segs, maxBlocks)
	if len(chain) == 0 {
		return nil
	}

	h := &Hit{c: c, instance: instance, chain: chain}
	devDepth := 0
	for i, e := range chain {
		e.refs++
		e.hits++
		e.lastUse = now
		if i == devDepth {
			if _, ok := e.dev[instance]; ok {
				devDepth++
			}
		}
	}
	h.MatchedTokens = len(chain) * c.block
	h.DeviceTokens = devDepth * c.block
	for i, e := range chain {
		if i < devDepth {
			h.DeviceBytes += e.blockBytes
		} else {
			h.HostBytes += e.blockBytes
		}
	}

	c.st.hits++
	c.st.tokensSaved += uint64(h.MatchedTokens)
	ms.Hits++
	ms.TokensSaved += uint64(h.MatchedTokens)
	// Remember the shape so promotion in Release can register device classes
	// even if the model was only ever seen via Acquire.
	if _, err := c.ensureClass(m, shape); err != nil {
		// Registration of an already-resident model cannot fail (the chain
		// exists, so the class does); tolerate and skip.
		_ = err
	}
	return h
}

// Release unpins the hit's chain and promotes reused entries to the
// consuming instance's device tier, budget permitting. Safe to call more
// than once; only the first call acts.
func (h *Hit) Release(now sim.Time) {
	if h == nil || h.released {
		return
	}
	h.released = true
	c := h.c
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, e := range h.chain {
		if e.refs > 0 {
			e.refs--
		}
	}
	// Promote root-first so device residency stays contiguous from the
	// prompt start (a device walk stops at the first non-resident block, so
	// a gap would strand everything after it).
	dev := c.devices[h.instance]
	if dev == nil {
		return
	}
	for _, e := range h.chain {
		if _, ok := e.dev[h.instance]; ok {
			continue
		}
		if e.hits < uint64(c.cfg.PromoteAfter) {
			break
		}
		if !c.promote(e, h.instance, dev, now) {
			break
		}
	}
}

// promote gives e a device copy on instance. Caller holds c.mu.
func (c *Cache) promote(e *entry, instance string, dev *kvcache.Cache, now sim.Time) bool {
	ci, ok := c.classes[e.model]
	if !ok {
		return false
	}
	// Making room for e must not evict e's own ancestors: their copies were
	// just promoted (or are what makes e's copy reachable — a device walk is
	// contiguous from the root), and the pins protecting them were dropped
	// before this loop ran.
	exclude := map[*entry]bool{}
	for a := e.parent; a != nil; a = a.parent {
		exclude[a] = true
	}
	if !c.ensureDeviceRoom(instance, e.blockBytes, exclude) {
		return false
	}
	if _, err := dev.RegisterShape(ci.shape); err != nil {
		return false
	}
	b, err := dev.Pool().Alloc(ci.label)
	if err != nil {
		// The instance's GPU pool is full of sequence KV; skip promotion
		// rather than fight the serving path for VRAM.
		return false
	}
	if e.dev == nil {
		e.dev = map[string]memory.Block{}
	}
	e.dev[instance] = b
	c.devBytes[instance] += e.blockBytes
	if e.parent != nil {
		if e.parent.devChildren == nil {
			e.parent.devChildren = map[string]int{}
		}
		e.parent.devChildren[instance]++
	}
	e.lastUse = now
	c.st.promotions++
	return true
}

// Insert records the full block-aligned prefix of a freshly computed prompt.
// The KV payload is already on the computing instance; the host copy rides
// along the existing prefill→decode offload path, so insertion charges no
// additional transfer in the latency model (see DESIGN.md §12). Existing
// entries along the path are refreshed; missing ones are allocated from the
// host pool, evicting unpinned leaves as needed. Insertion stops early if
// the budget cannot be met — the cached chain is still valid, just shorter.
func (c *Cache) Insert(m string, shape model.KVShape, segs []workload.PromptSeg, tokens int, now sim.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()

	nblocks := tokens / c.block
	if nblocks <= 0 {
		return
	}
	ci, err := c.ensureClass(m, shape)
	if err != nil {
		return
	}
	hashes := ChunkHashes(segs, nblocks, c.block)
	idx := c.index[m]
	if idx == nil {
		idx = map[uint64]*entry{}
		c.index[m] = idx
	}
	c.st.inserts++

	// Pin the path as it is walked/built so eviction triggered for block k
	// cannot reclaim the blocks 0..k-1 just traversed or created.
	var path []*entry
	defer func() {
		for _, e := range path {
			e.refs--
		}
	}()

	var parent *entry
	for k, hsh := range hashes {
		if e := idx[hsh]; e != nil {
			e.lastUse = now
			e.refs++
			path = append(path, e)
			parent = e
			continue
		}
		if !c.ensureHostRoom(ci.blockBytes) {
			return
		}
		b, err := c.host.Pool().Alloc(ci.label)
		if err != nil {
			// Host pool exhausted by sequence swap-outs; make one more
			// attempt after evicting, then give up on the tail.
			if !c.evictHostOne() {
				return
			}
			if b, err = c.host.Pool().Alloc(ci.label); err != nil {
				return
			}
		}
		e := &entry{
			model:      m,
			hash:       hsh,
			depth:      k + 1,
			parent:     parent,
			refs:       1,
			lastUse:    now,
			class:      ci.label,
			blockBytes: ci.blockBytes,
			hostBlock:  b,
		}
		if parent != nil {
			parent.children++
		}
		idx[hsh] = e
		c.hostBytes += ci.blockBytes
		c.st.insertedBlocks++
		path = append(path, e)
		parent = e
	}
}

// ensureHostRoom evicts until one more block of size bb fits the budget.
func (c *Cache) ensureHostRoom(bb int64) bool {
	for c.hostBytes+bb > c.cfg.HostBytes {
		if !c.evictHostOne() {
			return false
		}
	}
	return true
}

// evictHostOne removes one unpinned leaf from the host tier (and with it any
// device copies). Returns false when every entry is pinned or interior.
func (c *Cache) evictHostOne() bool {
	v := c.pickVictim(func(e *entry) bool { return e.children == 0 && e.refs == 0 })
	if v == nil {
		return false
	}
	c.journalEviction("host_evict", "", v)
	c.removeEntry(v)
	c.st.hostEvictions++
	return true
}

// journalEviction records one eviction victim choice. Caller holds c.mu; the
// journal has its own lock and never calls back into the cache.
func (c *Cache) journalEviction(tier, instance string, v *entry) {
	j := c.cfg.Journal
	if j == nil {
		return
	}
	var at sim.Time
	if c.cfg.Clock != nil {
		at = c.cfg.Clock()
	}
	j.Record(decision.Record{At: at, Kind: decision.KindPrefixEviction,
		Instance: instance, Model: v.model,
		Outcome: tier,
		Reason:  c.cfg.Policy.String() + " victim " + fmt.Sprintf("%x@%d", v.hash, v.depth),
		Inputs: []decision.Term{
			{Name: "depth", Value: float64(v.depth)},
			{Name: "hits", Value: float64(v.hits)},
			decision.NsTerm("last_use", v.lastUse),
			{Name: "block_bytes", Value: float64(v.blockBytes)},
		}})
}

// pickVictim scans every entry passing ok and returns the minimum of the
// policy's total order. O(entries), deterministic.
func (c *Cache) pickVictim(ok func(*entry) bool) *entry {
	var best *entry
	for _, idx := range c.index {
		for _, e := range idx {
			if !ok(e) {
				continue
			}
			if best == nil || c.less(e, best) {
				best = e
			}
		}
	}
	return best
}

// less is the eviction total order: policy key, then model and hash so ties
// never fall back to map iteration order.
func (c *Cache) less(a, b *entry) bool {
	if c.cfg.Policy == PolicyFreq {
		if a.hits != b.hits {
			return a.hits < b.hits
		}
	}
	if a.lastUse != b.lastUse {
		return a.lastUse < b.lastUse
	}
	if a.model != b.model {
		return a.model < b.model
	}
	return a.hash < b.hash
}

// removeEntry frees an unpinned leaf's host block and device copies and
// unlinks it. Caller holds c.mu.
func (c *Cache) removeEntry(e *entry) {
	if err := c.host.Pool().Free(e.hostBlock); err != nil {
		panic(fmt.Sprintf("prefixcache: host free: %v", err))
	}
	c.hostBytes -= e.blockBytes
	for inst, b := range e.dev {
		if dev := c.devices[inst]; dev != nil {
			if err := dev.Pool().Free(b); err != nil {
				panic(fmt.Sprintf("prefixcache: device free on %s: %v", inst, err))
			}
		}
		c.devBytes[inst] -= e.blockBytes
		if e.parent != nil {
			e.parent.devChildren[inst]--
		}
	}
	if e.parent != nil {
		e.parent.children--
	}
	// The model's (possibly now empty) map stays resident: Insert holds a
	// reference to it across evictions it triggers, so dropping it here would
	// orphan the map and lose the entries inserted after the eviction.
	delete(c.index[e.model], e.hash)
}

// ensureDeviceRoom evicts instance-local device copies until bb more bytes
// fit that instance's budget, never touching excluded entries.
func (c *Cache) ensureDeviceRoom(instance string, bb int64, exclude map[*entry]bool) bool {
	budget := c.devBudget[instance]
	for c.devBytes[instance]+bb > budget {
		if !c.evictDeviceOne(instance, exclude) {
			return false
		}
	}
	return true
}

// evictDeviceOne drops one unpinned device-leaf copy from instance. The
// host copy stays; only the accelerator copy goes.
func (c *Cache) evictDeviceOne(instance string, exclude map[*entry]bool) bool {
	v := c.pickVictim(func(e *entry) bool {
		if e.refs != 0 || exclude[e] {
			return false
		}
		if _, ok := e.dev[instance]; !ok {
			return false
		}
		return e.devChildren[instance] == 0
	})
	if v == nil {
		return false
	}
	c.journalEviction("device_evict", instance, v)
	c.dropDeviceCopy(v, instance, true)
	c.st.deviceEvictions++
	return true
}

// dropDeviceCopy removes e's device copy on instance. free=false means the
// device memory died with the instance (crash) and must not be returned to
// its pool.
func (c *Cache) dropDeviceCopy(e *entry, instance string, free bool) {
	b, ok := e.dev[instance]
	if !ok {
		return
	}
	if free {
		if dev := c.devices[instance]; dev != nil {
			if err := dev.Pool().Free(b); err != nil {
				panic(fmt.Sprintf("prefixcache: device free on %s: %v", instance, err))
			}
		}
	}
	delete(e.dev, instance)
	c.devBytes[instance] -= e.blockBytes
	if e.parent != nil && e.parent.devChildren != nil {
		e.parent.devChildren[instance]--
	}
}

// EvictDeviceBytes is the serving path's pressure valve: when sequence
// allocation on an instance hits OOM, core asks the prefix cache to give
// back up to n bytes of that instance's device copies. Returns bytes freed.
func (c *Cache) EvictDeviceBytes(instance string, n int64) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	var freed int64
	for freed < n {
		before := c.devBytes[instance]
		if !c.evictDeviceOne(instance, nil) {
			break
		}
		freed += before - c.devBytes[instance]
	}
	return freed
}

// DropInstance forgets every device copy held by a crashed instance without
// returning blocks to its pool — the VRAM died with the process. Future
// promotions to the instance stop until it is re-attached.
func (c *Cache) DropInstance(instance string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, idx := range c.index {
		for _, e := range idx {
			if _, ok := e.dev[instance]; ok {
				c.dropDeviceCopy(e, instance, false)
				c.st.deviceDrops++
			}
		}
	}
	c.devBytes[instance] = 0
	delete(c.devices, instance)
	delete(c.devBudget, instance)
}

// MatchTokensOn reports, without mutating any state, how many prompt tokens
// an instance could serve from cache (total) and how many of those are
// already resident on its device tier. The router's placement score is built
// from this.
func (c *Cache) MatchTokensOn(instance, m string, segs []workload.PromptSeg, tokens int) (matched, onDevice int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	chain := c.walk(m, segs, (tokens-1)/c.block)
	devDepth := 0
	for i, e := range chain {
		if i == devDepth {
			if _, ok := e.dev[instance]; ok {
				devDepth++
			}
		}
	}
	return len(chain) * c.block, devDepth * c.block
}

// Stats snapshots the cache.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := Stats{
		Lookups:               c.st.lookups,
		Hits:                  c.st.hits,
		TokensSaved:           c.st.tokensSaved,
		PrefillTokens:         c.st.prefillTokens,
		Inserts:               c.st.inserts,
		HostEvictions:         c.st.hostEvictions,
		DeviceEvictions:       c.st.deviceEvictions,
		Promotions:            c.st.promotions,
		DeviceDrops:           c.st.deviceDrops,
		HostBytes:             c.hostBytes,
		PerModel:              map[string]ModelStats{},
		DeviceBytesByInstance: map[string]int64{},
	}
	for m, ms := range c.perModel {
		s.PerModel[m] = *ms
	}
	for inst, b := range c.devBytes {
		if b != 0 {
			s.DeviceBytesByInstance[inst] = b
		}
		s.DeviceBytes += b
	}
	for _, idx := range c.index {
		for _, e := range idx {
			s.HostEntries++
			s.DeviceCopies += len(e.dev)
			if e.refs > 0 {
				s.PinnedEntries++
			}
		}
	}
	return s
}

// PinnedEntries returns the number of entries with a nonzero refcount. At
// quiescence (no in-flight prefill) it must be zero — the chaos invariants
// check exactly that.
func (c *Cache) PinnedEntries() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, idx := range c.index {
		for _, e := range idx {
			if e.refs > 0 {
				n++
			}
		}
	}
	return n
}

// HostResidentBytes returns bytes of the shared CPU pool held by the cache.
func (c *Cache) HostResidentBytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hostBytes
}

// DeviceResidentBytes returns bytes of an instance's GPU pool held by the
// cache's device copies there.
func (c *Cache) DeviceResidentBytes(instance string) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.devBytes[instance]
}

// CheckConsistency audits internal invariants and returns human-readable
// violations (empty when healthy): byte accounting matches entry sums,
// child/device-child counts match links, every non-root entry's parent is
// resident, and no refcount is negative.
func (c *Cache) CheckConsistency() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	var bad []string
	var hostSum int64
	devSum := map[string]int64{}
	children := map[*entry]int{}
	devChildren := map[*entry]map[string]int{}
	var all []*entry
	for _, idx := range c.index {
		for _, e := range idx {
			all = append(all, e)
		}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].model != all[j].model {
			return all[i].model < all[j].model
		}
		return all[i].hash < all[j].hash
	})
	for _, e := range all {
		hostSum += e.blockBytes
		for inst := range e.dev {
			devSum[inst] += e.blockBytes
		}
		if e.refs < 0 {
			bad = append(bad, fmt.Sprintf("entry %s/%x: negative refcount %d", e.model, e.hash, e.refs))
		}
		if e.parent != nil {
			children[e.parent]++
			if c.index[e.parent.model][e.parent.hash] != e.parent {
				bad = append(bad, fmt.Sprintf("entry %s/%x depth %d: parent not resident", e.model, e.hash, e.depth))
			}
			for inst := range e.dev {
				if devChildren[e.parent] == nil {
					devChildren[e.parent] = map[string]int{}
				}
				devChildren[e.parent][inst]++
			}
		}
	}
	for _, e := range all {
		if e.children != children[e] {
			bad = append(bad, fmt.Sprintf("entry %s/%x: children=%d, actual %d", e.model, e.hash, e.children, children[e]))
		}
		for inst, n := range e.devChildren {
			if n != devChildren[e][inst] {
				bad = append(bad, fmt.Sprintf("entry %s/%x: devChildren[%s]=%d, actual %d", e.model, e.hash, inst, n, devChildren[e][inst]))
			}
		}
	}
	if hostSum != c.hostBytes {
		bad = append(bad, fmt.Sprintf("host bytes: tracked %d, entries sum %d", c.hostBytes, hostSum))
	}
	for inst, b := range c.devBytes {
		if b != devSum[inst] {
			bad = append(bad, fmt.Sprintf("device bytes on %s: tracked %d, entries sum %d", inst, b, devSum[inst]))
		}
	}
	return bad
}
