package server

import (
	"container/list"
	"context"
	"sync"

	"prophet/internal/obs"
)

// cachedResult is one finished evaluation as the wire sees it: the HTTP
// status and the exact response body bytes. Serving a cached result is a
// header write plus one body write — the estimator is never invoked.
type cachedResult struct {
	status int
	body   []byte
}

// resultOutcome labels how the result cache handled a request; it is the
// value of the X-Result-Cache response header and the "outcome" label of
// server_result_cache_total.
const (
	outcomeHit      = "hit"      // served from the stored result
	outcomeMiss     = "miss"     // this request executed the evaluation
	outcomeInflight = "inflight" // coalesced onto an identical in-flight evaluation
	outcomeBypass   = "bypass"   // not cacheable (?trace=1) or cache disabled
)

// flight is one in-flight evaluation that identical concurrent requests
// coalesce onto. The leader closes done exactly once; res is non-nil only
// when the leader finished with a shareable outcome. A nil res tells
// waiters to retry — the leader's failure was its own (its client went
// away, its deadline expired), not a property of the request.
type flight struct {
	done chan struct{}
	res  *cachedResult
	refs int // waiters currently coalesced on this flight (guarded by resultCache.mu)
}

// resultCache is a bounded LRU of canonical-request-key → response plus a
// singleflight table deduplicating identical in-flight work.
//
// The contract:
//
//   - get/store: plain LRU. Only results the evaluation completed (HTTP
//     200) are stored; deterministic client errors (422) are shared with
//     concurrent waiters but never stored, and cancelled or errored
//     evaluations (499/504/5xx) are neither stored nor shared — a dead
//     client's timeout must not poison the cache for a healthy one.
//   - do: at most one evaluation per key runs at a time. The first
//     caller (leader) executes; identical concurrent callers wait —
//     without holding an admission slot — and receive the leader's bytes.
//     One simulation serves N concurrent identical requests.
type resultCache struct {
	mu      sync.Mutex
	max     int
	entries map[string]*list.Element // key → *cacheEntry element
	lru     *list.List               // front = most recently used
	flights map[string]*flight

	outcomes *obs.CounterVec // server_result_cache_total{outcome}
	size     *obs.Gauge      // server_result_cache_entries
}

type cacheEntry struct {
	key string
	res *cachedResult
}

// newResultCache builds a cache bounded to max entries, registering its
// metrics. max must be positive; a Server with caching disabled has a nil
// *resultCache (all methods on which are never called).
func newResultCache(max int, reg *obs.Registry) *resultCache {
	c := &resultCache{
		max:      max,
		entries:  map[string]*list.Element{},
		lru:      list.New(),
		flights:  map[string]*flight{},
		outcomes: reg.CounterVec("server_result_cache_total", "outcome"),
		size:     reg.Gauge("server_result_cache_entries"),
	}
	// Materialize every outcome series at 0 so dashboards and hit-rate
	// queries see the counters before the first request.
	for _, o := range []string{outcomeHit, outcomeMiss, outcomeInflight, outcomeBypass} {
		c.outcomes.With(o)
	}
	return c
}

// get returns the stored result for key, refreshing its recency.
func (c *resultCache) get(key string) (*cachedResult, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		return nil, false
	}
	c.lru.MoveToFront(el)
	return el.Value.(*cacheEntry).res, true
}

// store inserts res under key, evicting the least recently used entry
// beyond the bound. Callers only store complete 200 results.
func (c *resultCache) store(key string, res *cachedResult) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		el.Value.(*cacheEntry).res = res
		c.lru.MoveToFront(el)
		return
	}
	c.entries[key] = c.lru.PushFront(&cacheEntry{key: key, res: res})
	for c.lru.Len() > c.max {
		oldest := c.lru.Back()
		c.lru.Remove(oldest)
		delete(c.entries, oldest.Value.(*cacheEntry).key)
	}
	c.size.Set(float64(c.lru.Len()))
}

// invalidate drops every stored result and lets in-flight evaluations
// finish unshared-from-cache. It exists for operational use (a test
// hook today); content-hash keys mean it is never needed for correctness.
func (c *resultCache) invalidate() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries = map[string]*list.Element{}
	c.lru.Init()
	c.size.Set(0)
}

// waiters reports how many requests are currently coalesced behind the
// in-flight evaluation of key, not counting the leader. Test seam.
func (c *resultCache) waiters(key string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if f, ok := c.flights[key]; ok {
		return f.refs
	}
	return 0
}

// do serves key through the cache: a stored result returns immediately
// ("hit"); an identical in-flight evaluation is joined ("inflight"); and
// otherwise the calling goroutine runs eval itself ("miss").
//
// eval returns (result, storable, err). A nil error publishes result to
// every waiter — storable additionally stores it for future requests. A
// non-nil error is private to the leader: waiters wake and retry (one
// becomes the next leader), so a leader whose client disconnected or
// deadline expired cannot fail, or poison, anyone else's request. A
// waiter whose own ctx ends while waiting returns ctx's cancellation
// cause with outcome "inflight".
func (c *resultCache) do(ctx context.Context, key string, eval func() (*cachedResult, bool, error)) (*cachedResult, string, error) {
	for {
		c.mu.Lock()
		if el, ok := c.entries[key]; ok {
			c.lru.MoveToFront(el)
			res := el.Value.(*cacheEntry).res
			c.mu.Unlock()
			c.outcomes.With(outcomeHit).Inc()
			return res, outcomeHit, nil
		}
		if f, ok := c.flights[key]; ok {
			f.refs++
			c.mu.Unlock()
			select {
			case <-f.done:
				c.dropRef(key, f)
				if f.res != nil {
					c.outcomes.With(outcomeInflight).Inc()
					return f.res, outcomeInflight, nil
				}
				// The leader failed privately; try again (next iteration
				// either finds a new flight, the stored result, or leads).
				continue
			case <-ctx.Done():
				c.dropRef(key, f)
				c.outcomes.With(outcomeInflight).Inc()
				return nil, outcomeInflight, context.Cause(ctx)
			}
		}
		f := &flight{done: make(chan struct{})}
		c.flights[key] = f
		c.mu.Unlock()
		return c.lead(key, f, eval)
	}
}

// lead runs eval as the leader of flight f. The flight is released in a
// defer: an eval that panics leaves f.res nil, so its waiters wake and
// retry instead of blocking on the key until their own deadlines.
func (c *resultCache) lead(key string, f *flight, eval func() (*cachedResult, bool, error)) (*cachedResult, string, error) {
	defer func() {
		c.mu.Lock()
		delete(c.flights, key)
		c.mu.Unlock()
		close(f.done)
	}()
	res, storable, err := eval()
	if err == nil {
		f.res = res
		if storable {
			c.store(key, res)
		}
	}
	c.outcomes.With(outcomeMiss).Inc()
	return res, outcomeMiss, err
}

// dropRef unregisters a waiter from a flight (which may already be
// resolved and removed from the table).
func (c *resultCache) dropRef(key string, f *flight) {
	c.mu.Lock()
	f.refs--
	c.mu.Unlock()
}

// bypass counts a request the cache could not serve (?trace=1 inline
// trace requests, unhashable models).
func (c *resultCache) bypass() {
	c.outcomes.With(outcomeBypass).Inc()
}
