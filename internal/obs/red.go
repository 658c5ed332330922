package obs

import (
	"sync"
	"sync/atomic"
)

// RED metrics — Requests, Errors, Duration — are the service-side
// counterpart of the generator's per-shard counters: one counter pair
// plus one latency histogram (and a bytes counter) per route, published
// as labeled series under a shared base name so the Prometheus
// exposition groups them into per-family tables
// (`serve.http.requests{route="truth"}`, …).
//
// The handle table is copy-on-write: the hot path is one atomic
// pointer load plus a read-only map lookup, and table growth (new
// routes) copies the map under a mutex.  Services pre-resolve their full route
// set at startup, so steady-state request handling never takes the
// slow path.

// REDRoute is the pre-resolved series bundle for one route.  Handles
// are plain registry pointers: resolve once, observe forever.
type REDRoute struct {
	Requests *Counter   // every request on the route
	Errors   *Counter   // 5xx responses (incl. recovered panics)
	Seconds  *Histogram // request wall time
	Bytes    *Counter   // response body bytes written
}

// Observe records one finished request: status decides whether the
// error counter advances (5xx only — 4xx is the client's problem, not
// an SLO burn).
func (rt *REDRoute) Observe(status int, seconds float64, bytes int64) {
	rt.Requests.Inc()
	if status >= 500 {
		rt.Errors.Inc()
	}
	rt.Seconds.Observe(seconds)
	if bytes > 0 {
		rt.Bytes.Add(bytes)
	}
}

// RED resolves per-route series bundles under one dotted base name
// ("serve.http" → serve.http.requests / .errors / .seconds / .bytes,
// each labeled {route="…"}).
type RED struct {
	reg    *Registry
	base   string
	bounds []float64
	tab    atomic.Pointer[map[string]*REDRoute]
	mu     sync.Mutex // serializes table growth
}

// NewRED returns a RED resolver publishing on reg (nil selects Default)
// under base; bounds configure the latency histograms (empty selects
// DefSecondsBuckets).
func NewRED(reg *Registry, base string, bounds ...float64) *RED {
	if reg == nil {
		reg = Default
	}
	r := &RED{reg: reg, base: base, bounds: bounds}
	empty := map[string]*REDRoute{}
	r.tab.Store(&empty)
	return r
}

// Route returns the series bundle for route, creating and caching it on
// first use.  The fast path is lock-free: one atomic load and a map
// read.
func (r *RED) Route(route string) *REDRoute {
	if rt := (*r.tab.Load())[route]; rt != nil {
		return rt
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	cur := *r.tab.Load()
	if rt := cur[route]; rt != nil {
		return rt
	}
	rt := &REDRoute{
		Requests: r.reg.Counter(Labeled(r.base+".requests", "route", route)),
		Errors:   r.reg.Counter(Labeled(r.base+".errors", "route", route)),
		Seconds:  r.reg.Histogram(Labeled(r.base+".seconds", "route", route), r.bounds...),
		Bytes:    r.reg.Counter(Labeled(r.base+".bytes", "route", route)),
	}
	next := make(map[string]*REDRoute, len(cur)+1)
	for k, v := range cur {
		next[k] = v
	}
	next[route] = rt
	r.tab.Store(&next)
	return rt
}
