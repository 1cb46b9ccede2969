package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptrace"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"readduo/internal/backend"
	"readduo/internal/cache"
	"readduo/internal/cpu"
	"readduo/internal/drift"
	"readduo/internal/lifetime"
	"readduo/internal/reliability"
	"readduo/internal/server"
	"readduo/internal/sim"
	"readduo/internal/slo"
	"readduo/internal/telemetry"
	"readduo/internal/trace"
)

// Request classes of the serve workloads.
type serveClass int

const (
	classTier0  serveClass = iota // warmed hot key on the hot front end
	classDisk                     // long-tail key behind a heap tier too small to hold it
	classMiss                     // fresh spec computed on the hot front end
	classRemote                   // fresh spec routed to the in-process worker
	numClasses
)

var classNames = [numClasses]string{"tier0", "disk", "miss", "remote"}

// Front ends, indexed into serveEnv.fes.
const (
	feHot    = iota // default heap tier: tier-0 hits and local misses
	feTail          // tiny heap tier + disk tier: disk-tier hits
	feRemote        // routed to the worker: remote misses
	numFEs
)

var classFE = [numClasses]int{classTier0: feHot, classDisk: feTail, classMiss: feHot, classRemote: feRemote}

// openMix is the open loop's (and the capacity phase's) class mix. The
// 80/20 hit/miss split is the one the serve capacity was first measured
// on; the even split of hits between the tiers and of misses between
// local and remote is an assumption.
var openMix = [numClasses]float64{classTier0: 0.40, classDisk: 0.40, classMiss: 0.10, classRemote: 0.10}

const (
	openRate     = 400     // requests per second offered by the open loop
	openShare    = 0.5     // share of the run's seconds spent in the open loop
	capacityRate = 4000    // requests per second the capacity phase is sized for
	tailLRUBytes = 8 << 10 // heap tier of the tail front end: a handful of entries
	mcCells      = 2000    // Monte-Carlo population of an mc spec (assumed): a request-sized piece
	setupRepeats = 5       // set-ups per run; the median is reported
	verifySample = 24      // miss keys re-fetched through the other topology
	hotKeys      = 32      // warmed hot keys
	tailKeys     = 128     // warmed long-tail keys: several times what the tail heap tier holds
	workerSample = 48      // compute bodies replayed straight to the worker
	bulkLRUGets  = 200_000 // bulk tier-0 cache reads
	drainTimeout = 5 * time.Second
)

// request is one planned request: its class, where it goes, and the
// spec parameters the layer measurements reuse.
type request struct {
	class serveClass
	path  string
	op    string
	// policy / ler
	metric string
	tempK  float64
	e, w   int
	s      float64
	eccs   []int
	ivals  []float64
	// mc
	seed int64
	// compare
	bench   string
	schemes []string
}

// Compare specs run the server's default budget on the design pair its
// missing-schemes error suggests, over the sim-sweep profiles.
const compareBudget = 25_000

var compareSchemes = []string{"Ideal", "LWT-4"}

// instr is the simulated instruction count of a compare request.
func (r request) instr() uint64 {
	if r.op != "compare" {
		return 0
	}
	return compareBudget * uint64(cpu.DefaultConfig().Cores*len(r.schemes))
}

// specGen derives every request spec of a run from the workload seed. A
// running counter makes each spec distinct, so a fresh spec is a miss.
type specGen struct {
	rng *rand.Rand
	k   int
}

func newSpecGen(seed int64) *specGen { return &specGen{rng: rand.New(rand.NewSource(seed))} }

// missOps is the op mix of every key set: the four computing endpoints
// in equal shares, an assumption.
var missOps = []string{"policy", "ler", "compare", "mc"}
var missShares = []float64{0.25, 0.25, 0.25, 0.25}

// exactMix returns n indices into shares, each appearing in its share of
// n (up to rounding, remainder to index 0), in a seeded order, so every
// seed runs the same proportions.
func (g *specGen) exactMix(n int, shares []float64) []int {
	out := make([]int, 0, n)
	for k, share := range shares {
		for i := 0; i < int(share*float64(n)+0.5) && len(out) < n; i++ {
			out = append(out, k)
		}
	}
	for len(out) < n {
		out = append(out, 0)
	}
	g.rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// fresh returns n new specs of the class, with ops in missShares.
func (g *specGen) fresh(class serveClass, n int) []request {
	out := make([]request, n)
	for i, k := range g.exactMix(n, missShares) {
		out[i] = g.spec(class, missOps[k])
	}
	return out
}

func (g *specGen) spec(class serveClass, op string) request {
	g.k++
	r := request{class: class, op: op, metric: [2]string{"R", "M"}[g.rng.Intn(2)]}
	unique := 1 + float64(g.k)/1024 // exact in binary, distinct per spec
	switch op {
	case "policy":
		r.tempK = drift.DefaultTempK
		r.e = 4 + 2*g.rng.Intn(5)
		r.w = g.rng.Intn(2)
		r.s = unique
		r.path = fmt.Sprintf("/v1/policy?metric=%s&e=%d&s=%g&w=%d", r.metric, r.e, r.s, r.w)
	case "ler":
		temps := simWorkloads["sim-sweep"].temps
		r.tempK = temps[g.rng.Intn(len(temps))]
		r.eccs = [][]int{{4, 8}, {2, 6, 10}}[g.rng.Intn(2)]
		r.ivals = []float64{2, 8, 8 + unique}
		r.path = fmt.Sprintf("/v1/ler?metric=%s&temp=%g&eccs=%s&intervals=%s",
			r.metric, r.tempK, joinInts(r.eccs), joinFloats(r.ivals))
	case "mc":
		r.seed = int64(g.k)
		r.path = fmt.Sprintf("/v1/mc?cells=%d&seed=%d", mcCells, r.seed)
	case "compare":
		benches := simWorkloads["sim-sweep"].benches
		r.bench = benches[g.rng.Intn(len(benches))]
		r.schemes = compareSchemes
		r.seed = int64(g.k)
		r.path = fmt.Sprintf("/v1/compare?benchmark=%s&schemes=%s&seed=%d", r.bench, strings.Join(r.schemes, ","), r.seed)
	}
	return r
}

func joinInts(v []int) string {
	s := make([]string, len(v))
	for i, x := range v {
		s[i] = fmt.Sprint(x)
	}
	return strings.Join(s, ",")
}

func joinFloats(v []float64) string {
	s := make([]string, len(v))
	for i, x := range v {
		s[i] = fmt.Sprintf("%g", x)
	}
	return strings.Join(s, ",")
}

// planMix returns n requests whose classes follow the mix exactly (up to
// rounding) in a seeded order. Tier-0 requests pick hot keys at random
// and misses are fresh specs; disk requests get their tail key when
// sent (see serveEnv.fire).
func planMix(g *specGen, n int, hot []request) []request {
	classes := g.exactMix(n, openMix[:])
	var count [numClasses]int
	for _, c := range classes {
		count[c]++
	}
	fresh := [numClasses][]request{
		classMiss:   g.fresh(classMiss, count[classMiss]),
		classRemote: g.fresh(classRemote, count[classRemote]),
	}
	out := make([]request, n)
	for i, k := range classes {
		switch c := serveClass(k); c {
		case classTier0:
			out[i] = hot[g.rng.Intn(len(hot))]
			out[i].class = classTier0
		case classDisk:
			out[i] = request{class: classDisk} // the tail key is picked at send time
		default:
			out[i], fresh[c] = fresh[c][0], fresh[c][1:]
		}
	}
	return out
}

// result is what one request returned.
type result struct {
	status int
	xcache string
	sum    uint64
	err    error
	// traced requests only: when the request was written and when the
	// first response byte arrived, as offsets from its send.
	wrote, firstByte time.Duration
}

func bodySum(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// serveEnv is the in-process serving topology: one worker and three
// front ends configured like readduo-serve.
type serveEnv struct {
	worker *server.Worker
	fes    [numFEs]*server.Server
	regs   [numFEs]*telemetry.Registry
	base   [numFEs]string
	hot    []request
	tail   []request
	// tailNext walks the tail in send order, so a key comes back only
	// after every other tail key has been promoted through the tail
	// front end's heap tier, which holds far fewer.
	tailNext atomic.Int64
	ref      map[string]uint64 // reference body sum per path
	bodies   map[string][]byte // hot and tail bodies, for the bulk cache timings
}

// defaultObjectives mirrors readduo-serve's SLO policy.
func defaultObjectives() []slo.Objective {
	objectives := []slo.Objective{{Endpoint: "schemes", Availability: 0.999, LatencyMS: 100, LatencyTarget: 0.95}}
	for _, ep := range []string{"ler", "policy", "mc", "compare"} {
		objectives = append(objectives, slo.Objective{Endpoint: ep, Availability: 0.999})
	}
	return objectives
}

// startServe brings the topology up and warms the hot and tail keys.
func startServe(dir string, g *specGen) (*serveEnv, error) {
	env := &serveEnv{ref: map[string]uint64{}, bodies: map[string][]byte{}}
	env.worker = server.NewWorker(server.WorkerConfig{
		Addr: "127.0.0.1:0", Registry: telemetry.NewRegistry("readduo-worker"),
	})
	if err := env.worker.Start(); err != nil {
		return nil, err
	}
	cfgs := [numFEs]server.Config{
		feHot:    {},
		feTail:   {DiskCacheDir: filepath.Join(dir, "tail"), CacheBytes: tailLRUBytes},
		feRemote: {RemoteWorkers: []string{env.worker.Addr()}},
	}
	for i, cfg := range cfgs {
		cfg.Addr = "127.0.0.1:0"
		env.regs[i] = telemetry.NewRegistry("readduo-serve")
		cfg.Registry = env.regs[i]
		cfg.SLO = slo.NewTracker("server", defaultObjectives(), nil)
		srv, err := server.New(cfg)
		if err != nil {
			env.close()
			return nil, err
		}
		env.fes[i] = srv
		if err := srv.Start(); err != nil {
			env.close()
			return nil, err
		}
		env.base[i] = "http://" + srv.Addr()
	}
	env.hot = g.fresh(classTier0, hotKeys)
	env.tail = g.fresh(classDisk, tailKeys)
	if err := env.warm(feHot, env.hot); err != nil {
		env.close()
		return nil, err
	}
	if err := env.warm(feTail, env.tail); err != nil {
		env.close()
		return nil, err
	}
	return env, nil
}

// warm computes each request once on a front end and keeps its body as
// the reference every later answer for that key must match.
func (env *serveEnv) warm(fe int, reqs []request) error {
	clients := newClients(runtime.NumCPU())
	defer closeClients(clients)
	var mu sync.Mutex
	var firstErr error
	closedLoop(len(clients), len(reqs), func(w, i int) {
		body, status, _, err := get(clients[w], env.base[fe]+reqs[i].path, nil)
		mu.Lock()
		defer mu.Unlock()
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("warm %s: status %d: %s", reqs[i].path, status, bytes.TrimSpace(body))
		}
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			return
		}
		env.ref[reqs[i].path] = bodySum(body)
		env.bodies[reqs[i].path] = body
	})
	return firstErr
}

func (env *serveEnv) close() {
	ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	for _, fe := range env.fes {
		if fe != nil {
			fe.Shutdown(ctx)
		}
	}
	env.worker.Shutdown(ctx)
}

func newClients(n int) []*http.Client {
	out := make([]*http.Client, n)
	for i := range out {
		out[i] = &http.Client{
			Timeout: 30 * time.Second,
			Transport: &http.Transport{
				MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true,
			},
		}
	}
	return out
}

func closeClients(cs []*http.Client) {
	for _, c := range cs {
		c.CloseIdleConnections()
	}
}

// get fetches url, reading the whole body. A non-nil tr traces the
// request's write and first byte.
func get(c *http.Client, url string, tr *result) ([]byte, int, string, error) {
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		return nil, 0, "", err
	}
	if tr != nil {
		start := time.Now()
		req = req.WithContext(httptrace.WithClientTrace(req.Context(), &httptrace.ClientTrace{
			WroteRequest:         func(httptrace.WroteRequestInfo) { tr.wrote = time.Since(start) },
			GotFirstResponseByte: func() { tr.firstByte = time.Since(start) },
		}))
	}
	resp, err := c.Do(req)
	if err != nil {
		return nil, 0, "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return body, resp.StatusCode, resp.Header.Get("X-Cache"), err
}

// send issues one request from a client. A disk-class request takes the
// next tail key here, at send time.
func (env *serveEnv) send(c *http.Client, q *request, traced bool) result {
	if q.class == classDisk {
		*q = env.tail[int(env.tailNext.Add(1)-1)%len(env.tail)]
		q.class = classDisk
	}
	var r result
	var tr *result
	if traced {
		tr = &r
	}
	body, status, xc, err := get(c, env.base[classFE[q.class]]+q.path, tr)
	r.status, r.xcache, r.err, r.sum = status, xc, err, bodySum(body)
	return r
}

// fire returns the results slice and the per-request callback that sends
// a fixed plan through the clients.
func (env *serveEnv) fire(clients []*http.Client, reqs []request) ([]result, func(w, i int)) {
	res := make([]result, len(reqs))
	return res, func(w, i int) { res[i] = env.send(clients[w], &reqs[i], false) }
}

// planner hands out an unbounded plan one request at a time, in blocks
// of planBlock whose class mix (and miss op mix) is exact, so every part
// of a phase sends the mix.
type planner struct {
	mu  sync.Mutex
	g   *specGen
	hot []request
	buf []request
}

const planBlock = 200 // 20 misses per miss class: five of each op

func (p *planner) next() request {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.buf) == 0 {
		p.buf = planMix(p.g, planBlock, p.hot)
	}
	q := p.buf[0]
	p.buf = p.buf[1:]
	return q
}

// capacity runs a closed loop over the plan: every client sends its next
// request as soon as the last one is answered, until n requests have been
// sent. The phase is in send order.
func (env *serveEnv) capacity(clients []*http.Client, plan *planner, n int, traced bool) servePhase {
	type entry struct {
		q    request
		r    result
		shot shot
	}
	logs := make([][]entry, len(clients))
	var issued atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := range clients {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				if issued.Add(1) > int64(n) {
					return
				}
				sent := time.Since(start)
				q := plan.next()
				r := env.send(clients[w], &q, traced)
				logs[w] = append(logs[w], entry{q, r, shot{Due: sent, Sent: sent, Done: time.Since(start)}})
			}
		}(w)
	}
	wg.Wait()
	var all []entry
	for _, l := range logs {
		all = append(all, l...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].shot.Sent < all[j].shot.Sent })
	var p servePhase
	for _, e := range all {
		p.reqs = append(p.reqs, e.q)
		p.res = append(p.res, e.r)
		p.shots = append(p.shots, e.shot)
	}
	return p
}

// capacityParts runs the capacity phase as segments closed loops of
// n/segments requests, calibrating before each while nothing is in
// flight. It returns the parts joined, each part one segment of the
// result with its times continuing from the last, and the calibrations.
func (env *serveEnv) capacityParts(clients []*http.Client, plan *planner, n int) (servePhase, []float64) {
	var all servePhase
	var cals []float64
	for k := 0; k < segments; k++ {
		cals = append(cals, calibrate())
		part := env.capacity(clients, plan, n/segments, false)
		offset := lastDone(all.shots)
		for _, s := range part.shots {
			all.shots = append(all.shots, shot{Due: s.Due + offset, Sent: s.Sent + offset, Done: s.Done + offset})
		}
		all.reqs = append(all.reqs, part.reqs...)
		all.res = append(all.res, part.res...)
	}
	return all, cals
}

// tally counts what the answers prove wrong: transport errors and
// timeouts, non-200s (429s separately), an X-Cache that contradicts the
// class, and bodies that differ from their key's reference.
type tally struct {
	sent                                      [numClasses]int
	errs, timeouts, non200, rejected, wrongXC int
	bodyMismatch                              int
	missSums                                  map[string]uint64
}

func (t *tally) add(reqs []request, res []result, ref map[string]uint64) {
	if t.missSums == nil {
		t.missSums = map[string]uint64{}
	}
	for i, q := range reqs {
		r := res[i]
		t.sent[q.class]++
		var ne net.Error
		switch {
		case r.err != nil && errors.As(r.err, &ne) && ne.Timeout():
			t.timeouts++
			continue
		case r.err != nil:
			t.errs++
			continue
		case r.status == http.StatusTooManyRequests:
			t.rejected++
			continue
		case r.status != http.StatusOK:
			t.non200++
			continue
		}
		want := "miss"
		if q.class == classTier0 || q.class == classDisk {
			want = "hit"
			if r.sum != ref[q.path] {
				t.bodyMismatch++
			}
		} else {
			t.missSums[q.path] = r.sum
		}
		if r.xcache != want {
			t.wrongXC++
		}
	}
}

func (t *tally) failures() int {
	return t.errs + t.timeouts + t.non200 + t.rejected + t.wrongXC + t.bodyMismatch
}

// tierDeltas are the cache counters the front ends moved over a phase.
type tierDeltas struct {
	hotLRUHits, hotLRUMisses    uint64
	tailLRUHits, tailDiskHits   uint64
	remoteLRUMisses, remoteOK   uint64
	remoteFallbacks, lruEvicted uint64
}

func counterDelta(after, before telemetry.Snapshot, name string) uint64 {
	return after.Counters[name] - before.Counters[name]
}

func (env *serveEnv) snapshots() [numFEs]telemetry.Snapshot {
	var out [numFEs]telemetry.Snapshot
	for i, r := range env.regs {
		out[i] = r.Snapshot()
	}
	return out
}

func deltasBetween(after, before [numFEs]telemetry.Snapshot) tierDeltas {
	return tierDeltas{
		hotLRUHits:      counterDelta(after[feHot], before[feHot], "server.cache.tier.lru.hits"),
		hotLRUMisses:    counterDelta(after[feHot], before[feHot], "server.cache.tier.lru.misses"),
		tailLRUHits:     counterDelta(after[feTail], before[feTail], "server.cache.tier.lru.hits"),
		tailDiskHits:    counterDelta(after[feTail], before[feTail], "server.cache.tier.disk.hits"),
		remoteLRUMisses: counterDelta(after[feRemote], before[feRemote], "server.cache.tier.lru.misses"),
		remoteOK:        counterDelta(after[feRemote], before[feRemote], "server.remote.ok"),
		remoteFallbacks: counterDelta(after[feRemote], before[feRemote], "server.remote.fallbacks"),
		lruEvicted:      counterDelta(after[feTail], before[feTail], "server.cache.tier.lru.evictions"),
	}
}

// misclassified checks the classes the client meant to send against the
// tiers that answered, as the front ends' own counters record them:
// every tier-0 request a heap-tier hit on the hot front end, every disk
// request a disk-tier hit behind a heap-tier miss on the tail front end,
// every local miss a heap-tier miss on the hot front end, and every
// remote miss a routed computation that did not fall back. It returns
// how many requests the counters cannot account for.
func misclassified(sent [numClasses]int, d tierDeltas) int {
	diff := func(got uint64, want int) int {
		if int(got) > want {
			return int(got) - want
		}
		return want - int(got)
	}
	return diff(d.hotLRUHits, sent[classTier0]) + diff(d.hotLRUMisses, sent[classMiss]) +
		int(d.tailLRUHits) + diff(d.tailDiskHits, sent[classDisk]) +
		diff(d.remoteLRUMisses, sent[classRemote]) + diff(d.remoteOK, sent[classRemote]) +
		int(d.remoteFallbacks)
}

// crossCheck re-fetches a sample of keys through the other topology —
// local misses through the worker, remote misses and tail keys locally,
// hot keys through the worker — and counts bodies that differ.
func (env *serveEnv) crossCheck(t *tally, local, remote []request) (attempted, mismatched int) {
	type probe struct {
		fe   int
		path string
		want uint64
	}
	var probes []probe
	add := func(fe int, reqs []request, want func(string) (uint64, bool)) {
		n := 0
		for _, q := range reqs {
			if n == verifySample {
				return
			}
			if sum, ok := want(q.path); ok {
				probes = append(probes, probe{fe, q.path, sum})
				n++
			}
		}
	}
	miss := func(p string) (uint64, bool) { s, ok := t.missSums[p]; return s, ok }
	ref := func(p string) (uint64, bool) { s, ok := env.ref[p]; return s, ok }
	add(feRemote, local, miss)
	add(feHot, remote, miss)
	add(feRemote, env.hot, ref)
	add(feHot, env.tail, ref)
	clients := newClients(1)
	defer closeClients(clients)
	for _, p := range probes {
		body, status, _, err := get(clients[0], env.base[p.fe]+p.path, nil)
		if err != nil || status != http.StatusOK || bodySum(body) != p.want {
			mismatched++
		}
	}
	return len(probes), mismatched
}

// servePhase is the outcome of sending one plan.
type servePhase struct {
	reqs  []request
	res   []result
	shots []shot
}

func (p servePhase) byClass() [numClasses][]time.Duration {
	var out [numClasses][]time.Duration
	for i, s := range p.shots {
		c := p.reqs[i].class
		out[c] = append(out[c], s.Latency())
	}
	return out
}

func (p servePhase) all() []time.Duration {
	out := make([]time.Duration, len(p.shots))
	for i, s := range p.shots {
		out[i] = s.Latency()
	}
	return out
}

// span is the time from the phase's first send to its last answer.
func (p servePhase) span() time.Duration {
	if len(p.shots) == 0 {
		return 0
	}
	first, last := p.shots[0].Sent, p.shots[0].Done
	for _, s := range p.shots {
		first, last = min(first, s.Sent), max(last, s.Done)
	}
	return last - first
}

// throughput is the phase's requests per second.
func (p servePhase) throughput() float64 {
	if len(p.shots) == 0 {
		return 0
	}
	return float64(len(p.shots)) / p.span().Seconds()
}

// simRate is the simulated instructions the phase's answered compare
// requests delivered per second of the phase, in millions. Every request
// of the phase shares its time, so every serve stage moves the figure.
func (p servePhase) simRate() float64 {
	if len(p.shots) == 0 {
		return 0
	}
	var instr uint64
	for i, q := range p.reqs {
		if p.res[i].status == http.StatusOK {
			instr += q.instr()
		}
	}
	return float64(instr) / p.span().Seconds() / 1e6
}

// segments is how many consecutive parts a phase is cut into. Each
// figure is taken per part and the median over parts reported, so a
// host stall of a second moves one part, not the run.
const segments = 5

func (p servePhase) segment(k int) servePhase {
	lo, hi := k*len(p.shots)/segments, (k+1)*len(p.shots)/segments
	return servePhase{reqs: p.reqs[lo:hi], res: p.res[lo:hi], shots: p.shots[lo:hi]}
}

func (p servePhase) segmentMedian(f func(servePhase) float64) float64 {
	vals := make([]float64, segments)
	for k := range vals {
		vals[k] = f(p.segment(k))
	}
	return median(vals)
}

// reportServe prints the serve figures: the per-class and all-class
// medians of lat (each request timed from its due time), the capacity
// (gated in simulated-instruction units as sim_minstr_per_s), and the
// tail, per segment of the closed-loop phase sat and of lat. On the host
// the bounds were set on, the latency figures swung between runs by more
// than any bound the benchmark may set, so they are not gated (see
// README.md).
func reportServe(rep *report, lat, sat servePhase, satRPS float64) {
	tail := func(s servePhase) float64 { return summarize(s.all()).Tail }
	all := summarize(lat.all())
	byClass := lat.byClass()
	rep.note("serve: tier0_p50_ms %.4f disk_p50_ms %.4f miss_p50_ms %.4f remote_p50_ms %.4f (not gated); sat_rps %.1f (gated as sim_minstr_per_s)",
		summarize(byClass[classTier0]).P50, summarize(byClass[classDisk]).P50,
		summarize(byClass[classMiss]).P50, summarize(byClass[classRemote]).P50, satRPS)
	rep.layer("p50_ms", all.P50)
	rep.layer("p99_ms", all.Tail)
	for c := serveClass(0); c < numClasses; c++ {
		rep.layer(classNames[c]+"_p50_ms", summarize(byClass[c]).P50)
	}
	rep.layer("sat_rps", satRPS)
	rep.note("serve (not gated): all classes p50 %.4f ms p%.4g %.4f ms over %d requests; closed-loop p99 %.4f ms, the median over %d segments of %d requests of each segment's p%.4g",
		all.P50, all.TailPct, all.Tail, all.N, sat.segmentMedian(tail), segments, len(sat.segment(0).shots), summarize(sat.segment(0).all()).TailPct)
	perSegment := func(p servePhase, f func(servePhase) float64) string {
		var parts []string
		for k := 0; k < segments; k++ {
			parts = append(parts, fmt.Sprintf("%.4g", f(p.segment(k))))
		}
		return strings.Join(parts, " ")
	}
	rep.note("per segment: tier0 p50 %s | closed-loop tail %s | tail from due time %s",
		perSegment(lat, func(s servePhase) float64 { return summarize(s.byClass()[classTier0]).P50 }),
		perSegment(sat, tail), perSegment(lat, tail))
	for c := serveClass(0); c < numClasses; c++ {
		s := summarize(byClass[c])
		rep.note("class %-6s n=%-6d p50 %.4f ms  p%.4g %.4f ms", classNames[c], s.N, s.P50, s.TailPct, s.Tail)
	}
}

// runServeMix is the serve-mix workload: an open loop at a fixed rate,
// then a closed-loop capacity phase over the same class mix.
func runServeMix(rep *report, opt options) error {
	var (
		setups, rawSetups []float64
		env               *serveEnv
		g                 *specGen
		coldMS            float64
	)
	for i := 0; i < setupRepeats; i++ {
		if env != nil {
			env.close()
		}
		var cold map[float64]time.Duration
		raw, scaled, err := timeCalibrated(func() (err error) {
			cold, err = setupSim(simWorkload{benches: simWorkloads["sim-sweep"].benches, schemes: compareSchemes})
			if err != nil {
				return err
			}
			dir := filepath.Join(opt.scratch, fmt.Sprintf("serve-%d", i))
			if err := os.RemoveAll(dir); err != nil {
				return err
			}
			// Every set-up draws the same keys; the timed plan continues
			// from the last one's generator.
			g = newSpecGen(opt.seed)
			env, err = startServe(dir, g)
			return err
		})
		if err != nil {
			return err
		}
		rawSetups = append(rawSetups, raw)
		setups = append(setups, scaled)
		coldMS = float64(cold[drift.DefaultTempK]) / float64(time.Millisecond)
	}
	defer env.close()
	rep.e2e("setup_s", median(setups))

	nOpen := int(openShare * opt.seconds.Seconds() * openRate)
	open := servePhase{reqs: planMix(g, nOpen, env.hot)}
	plan := &planner{g: g, hot: env.hot}
	clients := newClients(runtime.NumCPU())
	defer closeClients(clients)

	before := env.snapshots()
	var do func(w, i int)
	open.res, do = env.fire(clients, open.reqs)
	open.shots = openLoop(uniformDues(nOpen, openRate), len(clients), do)
	// The capacity phase sends a fixed count, sized to take the rest of
	// the run here, so the run's work — and the memory its caches and logs
	// hold — does not grow with the speed of the code under test.
	nClosed := int((1 - openShare) * opt.seconds.Seconds() * capacityRate)
	closed, cals := env.capacityParts(clients, plan, nClosed)
	after := env.snapshots()

	var t tally
	t.add(open.reqs, open.res, env.ref)
	t.add(closed.reqs, closed.res, env.ref)
	d := deltasBetween(after, before)
	wrongTier := misclassified(t.sent, d)
	recordTally(rep, &t, wrongTier, len(open.reqs)+len(closed.reqs))
	var local, remote []request
	for _, q := range open.reqs {
		switch q.class {
		case classMiss:
			local = append(local, q)
		case classRemote:
			remote = append(remote, q)
		}
	}
	checked, bad := env.crossCheck(&t, local, remote)
	rep.attempted += checked
	if bad > 0 {
		rep.fail(bad, "%d of %d bodies differ across topologies", bad, checked)
	}

	satRPS := closed.segmentMedian(servePhase.throughput)
	reportServe(rep, open, closed, satRPS)
	// The capacity phase's plan is a fixed count with an exact mix per
	// block, so this is its request rate in units of the simulation work
	// its /v1/compare requests deliver.
	var rates []float64
	for k, cal := range cals {
		rates = append(rates, calibratedRate(closed.segment(k).simRate(), cal))
	}
	rep.e2e("sim_minstr_per_s", median(rates))
	rep.note("as measured: setup %.4f s, %.2f Minstr/s, sat_rps %.1f (medians); calibration median %.3f x the reference over %d runs",
		median(rawSetups), closed.segmentMedian(servePhase.simRate), satRPS, median(cals), len(cals))
	lateP99, grew := lateness(open.shots)
	rep.note("open loop: %d requests at %d/s from %d clients; generator late p99 %.3f ms; backlog grew: %v",
		nOpen, openRate, len(clients), lateP99, grew)
	if grew {
		rep.fail(1, "open-loop backlog grew: the offered rate exceeds what the run sustained")
	}
	rep.note("capacity: %d requests in %.3f s from %d clients", len(closed.shots), lastDone(closed.shots).Seconds(), len(clients))

	if !opt.trace {
		return nil
	}
	rep.layer("loadgen.late_p99_ms", lateP99)
	rep.layer("reliability.cold_build_ms", coldMS)
	rep.layer("cache.tier.lru.hits", float64(d.hotLRUHits))
	rep.layer("cache.tier.disk.hits", float64(d.tailDiskHits))
	rep.layer("cache.tier.lru.evictions", float64(d.lruEvicted))
	rep.layer("backend.fallbacks", float64(d.remoteFallbacks))
	var hits, misses, shared, rejected uint64
	for i := range after {
		hits += counterDelta(after[i], before[i], "server.cache.hits")
		misses += counterDelta(after[i], before[i], "server.cache.misses")
		shared += counterDelta(after[i], before[i], "server.flight.shared")
		rejected += counterDelta(after[i], before[i], "server.compute.rejected")
	}
	rep.layer("server.cache.hit_ratio", float64(hits)/float64(max(1, hits+misses)))
	rep.layer("server.flight.shared", float64(shared))
	rep.layer("server.compute.rejected", float64(rejected))

	// Traced capacity phase: the same closed loop with client-side
	// request tracing, over fresh specs.
	traced := env.capacity(clients, plan, nClosed, true)
	var tt tally
	tt.add(traced.reqs, traced.res, env.ref)
	recordTally(rep, &tt, 0, len(traced.reqs))
	rep.overhead = closed.throughput()/traced.throughput() - 1
	var write, server, read []float64
	for i, r := range traced.res {
		if r.err != nil || r.firstByte == 0 {
			continue
		}
		total := traced.shots[i].Done - traced.shots[i].Sent
		write = append(write, r.wrote.Seconds()*1e6)
		server = append(server, (r.firstByte-r.wrote).Seconds()*1e6)
		read = append(read, (total-r.firstByte).Seconds()*1e6)
	}
	rep.note("traced capacity phase: median client write %.1f us, write to first byte %.1f us, body read %.1f us",
		median(write), median(server), median(read))

	lt, err := env.measureServeLayers(opt, g, local)
	if err != nil {
		return err
	}
	byClass := open.byClass()
	tier0US := summarize(byClass[classTier0]).P50 * 1000
	remoteUS := summarize(byClass[classRemote]).P50 * 1000
	rep.layer("cache.lru.get_us", lt.lruGetUS)
	rep.layer("cache.disk.get_us", lt.diskGetUS)
	rep.layer("cache.disk.put_us", lt.diskPutUS)
	rep.layer("server.frontend_us", tier0US-lt.lruGetUS)
	rep.layer("backend.worker_us", lt.workerUS)
	rep.layer("backend.hop_us", remoteUS-lt.workerUS)
	rep.layer("reliability.check_us", lt.checkUS)
	rep.layer("reliability.ler_cell_us", lt.lerCellUS)
	rep.layer("lifetime.mc_ms", lt.mcMS)
	rep.layer("sim.construct_us", lt.constructUS)
	if lt.workerFailed > 0 {
		rep.fail(lt.workerFailed, "%d direct worker computations failed", lt.workerFailed)
	}
	rep.attempted += lt.workerAttempted

	// Ledger: the open loop's request-seconds, split by the layer costs
	// measured above times how often each class pays them.
	rep.ledgerUnit = "request-s"
	rep.ledgerTotal = summarize(open.all()).TotalSec
	frontUS := tier0US - lt.lruGetUS
	count := func(c serveClass) float64 { return float64(len(byClass[c])) }
	n := len(open.shots)
	var lateSec float64
	for _, s := range open.shots {
		lateSec += s.Late().Seconds()
	}
	var computeSec float64
	for _, q := range open.reqs {
		if q.class != classMiss {
			continue
		}
		switch q.op {
		case "policy":
			computeSec += lt.checkUS * 1e-6
		case "ler":
			computeSec += lt.lerCellUS * 1e-6 * float64(len(q.eccs)*len(q.ivals))
		case "mc":
			computeSec += lt.mcMS * 1e-3
		case "compare":
			computeSec += lt.constructUS * 1e-6 * float64(len(q.schemes))
		}
	}
	rep.ledger("loadgen (late sends)", lateSec, "bulk-timed")
	rep.ledger("server front end", frontUS*1e-6*float64(n-len(byClass[classRemote])), "bulk-timed")
	rep.ledger("cache.lru", lt.lruGetUS*1e-6*float64(n), "bulk-timed")
	rep.ledger("cache.disk get", lt.diskGetUS*1e-6*count(classDisk), "bulk-timed")
	rep.ledger("compute (local misses)", computeSec, "bulk-timed")
	rep.ledger("backend worker (remote)", lt.workerUS*1e-6*count(classRemote), "bulk-timed")
	rep.ledger("backend hop (remote)", (remoteUS-lt.workerUS)*1e-6*count(classRemote), "bulk-timed")
	return nil
}

// lastDone is when a phase's last request finished.
func lastDone(shots []shot) time.Duration {
	var d time.Duration
	for _, s := range shots {
		d = max(d, s.Done)
	}
	return d
}

// recordTally books a phase's answers into the report.
func recordTally(rep *report, t *tally, wrongTier, attempted int) {
	rep.attempted += attempted
	for _, f := range []struct {
		n    int
		what string
	}{
		{t.errs, "transport errors"}, {t.timeouts, "timeouts"}, {t.non200, "non-200 responses"},
		{t.rejected, "429 responses"}, {t.wrongXC, "X-Cache answers contradicting the class"},
		{t.bodyMismatch, "bodies differing from their key's reference"},
		{wrongTier, "requests the tier counters do not account for"},
	} {
		if f.n > 0 {
			rep.fail(f.n, "%d %s", f.n, f.what)
		}
	}
}

// serveLayers are the serve-side layer costs measured in bulk.
type serveLayers struct {
	lruGetUS, diskGetUS, diskPutUS float64
	workerUS                       float64
	workerAttempted, workerFailed  int
	checkUS, lerCellUS, mcMS       float64
	constructUS                    float64
}

// measureServeLayers times the cache tiers, the worker, and the compute
// entry points in bulk on the workload's own keys, bodies and specs.
func (env *serveEnv) measureServeLayers(opt options, g *specGen, misses []request) (serveLayers, error) {
	var out serveLayers
	lru := cache.NewLRU(64 << 20)
	for _, q := range env.hot {
		lru.Put(q.path, env.bodies[q.path])
	}
	start := time.Now()
	for i := 0; i < bulkLRUGets; i++ {
		if _, ok := lru.Get(env.hot[i%len(env.hot)].path); !ok {
			return out, fmt.Errorf("bulk LRU lost a hot key")
		}
	}
	out.lruGetUS = float64(time.Since(start).Microseconds()) / bulkLRUGets

	disk, err := cache.OpenDisk(filepath.Join(opt.scratch, "bulk-disk"), 256<<20)
	if err != nil {
		return out, err
	}
	start = time.Now()
	for _, q := range env.tail {
		disk.Put(q.path, env.bodies[q.path])
	}
	out.diskPutUS = float64(time.Since(start).Microseconds()) / float64(len(env.tail))
	start = time.Now()
	const diskRounds = 20
	for r := 0; r < diskRounds; r++ {
		for _, q := range env.tail {
			if _, ok := disk.Get(q.path); !ok {
				return out, fmt.Errorf("bulk disk tier lost a tail key")
			}
		}
	}
	out.diskGetUS = float64(time.Since(start).Microseconds()) / float64(diskRounds*len(env.tail))

	w, err := env.measureWorker(g)
	if err != nil {
		return out, err
	}
	out.workerUS, out.workerAttempted, out.workerFailed = w.us, w.attempted, w.failed

	var policyN, lerCells, mcN, constructN int
	var policyT, lerT, mcT, constructT time.Duration
	for _, q := range misses {
		switch q.op {
		case "policy":
			cfg := metricConfig(q.metric, q.tempK)
			t0 := time.Now()
			an, err := reliability.NewAnalyzer(cfg)
			if err != nil {
				return out, err
			}
			if _, err := an.Check(reliability.Policy{E: q.e, S: q.s, W: q.w}); err != nil {
				return out, err
			}
			policyT += time.Since(t0)
			policyN++
		case "ler":
			cfg := metricConfig(q.metric, q.tempK)
			t0 := time.Now()
			an, err := reliability.NewAnalyzer(cfg)
			if err != nil {
				return out, err
			}
			an.BuildTable(q.ivals, q.eccs)
			lerT += time.Since(t0)
			lerCells += len(q.ivals) * len(q.eccs)
		case "mc":
			t0 := time.Now()
			if _, err := lifetime.SimulateMCContext(context.Background(), lifetime.MCConfig{
				Cells: mcCells, MedianEndurance: 1e8, Sigma: 0.25, WearRate: 1e-3,
				Seed: q.seed, Shards: 64, Workers: 1,
			}); err != nil {
				return out, err
			}
			mcT += time.Since(t0)
			mcN++
		case "compare":
			b, ok := trace.ByName(q.bench)
			if !ok {
				return out, fmt.Errorf("unknown benchmark %q", q.bench)
			}
			for _, name := range q.schemes {
				sch, err := sim.Parse(name)
				if err != nil {
					return out, err
				}
				cfg := sim.DefaultConfig(b)
				cfg.CPU.InstrBudget = 1
				t0 := time.Now()
				if _, err := sim.Run(cfg, sch); err != nil {
					return out, err
				}
				constructT += time.Since(t0)
				constructN++
			}
		}
	}
	per := func(d time.Duration, n int, unit time.Duration) float64 {
		if n == 0 {
			return 0
		}
		return float64(d) / float64(unit) / float64(n)
	}
	out.checkUS = per(policyT, policyN, time.Microsecond)
	out.lerCellUS = per(lerT, lerCells, time.Microsecond)
	out.mcMS = per(mcT, mcN, time.Millisecond)
	out.constructUS = per(constructT, constructN, time.Microsecond)
	return out, nil
}

// metricConfig maps a request's metric and temperature to the drift
// configuration the server evaluates.
func metricConfig(metric string, tempK float64) drift.Config {
	if metric == "M" {
		return drift.MMetricConfigAt(tempK)
	}
	return drift.RMetricConfigAt(tempK)
}

type workerTiming struct {
	us                float64
	attempted, failed int
}

// measureWorker records the compute requests a routed front end sends,
// through a recording proxy in front of the worker, then posts the
// recorded bodies straight to the worker and times them in bulk.
func (env *serveEnv) measureWorker(g *specGen) (workerTiming, error) {
	var out workerTiming
	var mu sync.Mutex
	var bodies [][]byte
	target := "http://" + env.worker.Addr() + backend.ComputePath
	proxy := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		if r.URL.Path == backend.ComputePath {
			mu.Lock()
			bodies = append(bodies, body)
			mu.Unlock()
		}
		req, err := http.NewRequestWithContext(r.Context(), r.Method, "http://"+env.worker.Addr()+r.URL.Path, bytes.NewReader(body))
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		req.Header = r.Header.Clone()
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		defer resp.Body.Close()
		w.WriteHeader(resp.StatusCode)
		io.Copy(w, resp.Body)
	})}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return out, err
	}
	go proxy.Serve(ln)
	defer proxy.Close()
	fe, err := server.New(server.Config{Addr: "127.0.0.1:0", RemoteWorkers: []string{ln.Addr().String()}})
	if err != nil {
		return out, err
	}
	if err := fe.Start(); err != nil {
		return out, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	defer fe.Shutdown(ctx)
	clients := newClients(1)
	defer closeClients(clients)
	for _, q := range g.fresh(classRemote, workerSample) {
		out.attempted++
		if _, status, _, err := get(clients[0], "http://"+fe.Addr()+q.path, nil); err != nil || status != http.StatusOK {
			out.failed++
		}
	}
	mu.Lock()
	recorded := bodies
	mu.Unlock()
	if len(recorded) == 0 {
		return out, fmt.Errorf("the routed front end sent no compute requests")
	}
	// Each post takes hundreds of microseconds, so timing them one by one
	// costs nothing measurable, and the median matches remote_p50_ms.
	var us []float64
	for r := 0; r < layerReps; r++ {
		for _, b := range recorded {
			out.attempted++
			start := time.Now()
			resp, err := clients[0].Post(target, "application/json", bytes.NewReader(b))
			if err != nil {
				out.failed++
				continue
			}
			_, err = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			us = append(us, float64(time.Since(start).Microseconds()))
			if err != nil || resp.StatusCode != http.StatusOK {
				out.failed++
			}
		}
	}
	out.us = median(us)
	return out, nil
}
