package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"armvirt/internal/runlog"
	"armvirt/internal/serve"
)

// serveEnv is one serve.Server on a loopback listener plus the client
// the benchmark drives it with.
type serveEnv struct {
	srv    *serve.Server
	hs     *http.Server
	base   string
	client *http.Client
	done   chan struct{} // closed when the accept loop has returned
}

// startServer starts a server with cfg on 127.0.0.1, with a client of
// at most nproc keep-alive connections.
func startServer(r *run, cfg serve.Config) (*serveEnv, error) {
	conns := r.nproc
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	env := &serveEnv{
		srv:  serve.New(cfg),
		base: "http://" + ln.Addr().String(),
		client: &http.Client{Timeout: 30 * time.Second, Transport: &http.Transport{
			MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true,
		}},
		done: make(chan struct{}),
	}
	env.hs = &http.Server{Handler: env.srv.Handler()}
	go func() {
		defer close(env.done)
		env.hs.Serve(ln) // returns ErrServerClosed once close runs
	}()
	return env, nil
}

// close stops the server and waits for its accept loop, its handlers
// and the server's admitted runs.
func (e *serveEnv) close() {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if e.hs.Shutdown(ctx) != nil {
		e.hs.Close() // a handler outlived the timeout; cut its connection
	}
	<-e.done
	e.client.CloseIdleConnections()
	e.srv.Drain()
}

// response is what the benchmark keeps of one HTTP exchange.
type response struct {
	status int
	body   []byte
	cache  string // X-Cache
	run    string // X-Armvirt-Run
	err    error
}

func getWith(c *http.Client, url string) response {
	resp, err := c.Get(url)
	if err != nil {
		return response{err: err}
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return response{status: resp.StatusCode, body: body, err: err,
		cache: resp.Header.Get("X-Cache"), run: resp.Header.Get("X-Armvirt-Run")}
}

func (e *serveEnv) get(path string) response { return getWith(e.client, e.base+path) }

// keyPath maps a pinned body key ("T2/json") to its request path.
func keyPath(key string) string {
	id, format, _ := strings.Cut(key, "/")
	return "/v1/experiments/" + id + "?format=" + format
}

// copyBufs holds the buffers fetch hashes bodies through. The generator
// shares the server's heap, so every byte it allocates per request adds
// garbage collections that the server's latency then pays for.
var copyBufs = sync.Pool{New: func() any { return new([32 << 10]byte) }}

// fetch requests one key and checks the body against its pin. The body
// is hashed as it streams in, not kept.
func (e *serveEnv) fetch(r *run, key string) (response, bool) {
	resp, err := e.client.Get(e.base + keyPath(key))
	if err != nil {
		return response{err: err}, false
	}
	defer resp.Body.Close()
	h := sha256.New()
	buf := copyBufs.Get().(*[32 << 10]byte)
	_, err = io.CopyBuffer(h, resp.Body, buf[:])
	copyBufs.Put(buf)
	res := response{status: resp.StatusCode, err: err,
		cache: resp.Header.Get("X-Cache"), run: resp.Header.Get("X-Armvirt-Run")}
	ok := err == nil && res.status == http.StatusOK && hex.EncodeToString(h.Sum(nil)) == r.pins.Bodies[key].SHA256
	return res, ok
}

// prime requests every key once over nproc connections, in order.
func (e *serveEnv) prime(r *run, keys []string) error {
	var mu sync.Mutex
	bad := 0
	next := 0
	var wg sync.WaitGroup
	for w := 0; w < r.nproc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				if next == len(keys) {
					mu.Unlock()
					return
				}
				key := keys[next]
				next++
				mu.Unlock()
				_, ok := e.fetch(r, key)
				mu.Lock()
				r.count(ok)
				if !ok {
					bad++
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if bad > 0 {
		return fmt.Errorf("priming: %d of %d bodies wrong or failed", bad, len(keys))
	}
	return nil
}

// closedLoop runs conns clients back to back for dur, together walking
// one seeded keyStream, and returns every round trip in ms.
func (e *serveEnv) closedLoop(r *run, conns int, dur time.Duration, keys []string, parent int) []float64 {
	settle()
	var mu sync.Mutex
	var lat []float64
	var wg sync.WaitGroup
	next := keyStream(rand.New(rand.NewSource(r.seed)), len(keys))
	deadline := time.Now().Add(dur)
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				mu.Lock()
				key := keys[next()]
				mu.Unlock()
				var ok bool
				ns := r.tr.do("GET "+key, parent, func(int) { _, ok = e.fetch(r, key) })
				mu.Lock()
				r.count(ok)
				lat = append(lat, float64(ns)/1e6)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return lat
}

// serveSpec is what distinguishes the two serve workloads.
type serveSpec struct {
	name string
	// budget sets serve.Config.CacheBytes from the primed working set's
	// bytes (0: the server's default, far above the working set).
	budget func(workingSet int64) int64
	rungs  []float64 // offered rates, rps, ascending
	ref    int       // index of the reference rung for p50_ms and the tail
	limit  float64   // p99 latency limit, ms
}

var (
	hitSpec = serveSpec{name: "serve-hit", rungs: []float64{1000, 2000, 5000, 25000}, ref: 0, limit: 50}

	churnSpec = serveSpec{name: "serve-churn", budget: func(ws int64) int64 { return ws / 2 },
		rungs: []float64{5, 15, 120}, ref: 1, limit: 500}
)

func runServeHit(r *run, dur time.Duration) error   { return runServe(r, dur, hitSpec) }
func runServeChurn(r *run, dur time.Duration) error { return runServe(r, dur, churnSpec) }

// setupServe builds a server for spec and primes every served key.
func setupServe(r *run, spec serveSpec, keys []string) (*serveEnv, error) {
	cfg := serve.Config{}
	if spec.budget != nil {
		var ws int64
		for _, k := range keys {
			ws += int64(r.pins.Bodies[k].Bytes)
		}
		cfg.CacheBytes = spec.budget(ws)
	}
	env, err := startServer(r, cfg)
	if err != nil {
		return nil, err
	}
	if err := env.prime(r, keys); err != nil {
		env.close()
		return nil, err
	}
	return env, nil
}

// runServe is a serve workload: set up and prime, then closed-loop
// round trips at one and at nproc connections, then the open-loop ladder.
func runServe(r *run, dur time.Duration, spec serveSpec) error {
	root := r.tr.start(spec.name, 0)
	defer r.tr.end(root)
	keys := servedKeys()
	repeats := setupRepeats
	if !r.primary {
		repeats = 1
	}
	var env *serveEnv
	var setups []float64
	for i := 0; i < repeats; i++ {
		if env != nil {
			env.close()
		}
		t0 := time.Now()
		var err error
		if env, err = setupServe(r, spec, keys); err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer env.close()
	r.e2e("setup_s", median(setups), "s")

	ladderTime := dur
	if r.primary {
		closed := dur * 15 / 100
		ladderTime = dur - 2*closed
		r.e2e("serial_ms", median(env.closedLoop(r, 1, closed, keys, root)), "ms")
		r.e2e("parallel_ms", median(env.closedLoop(r, r.nproc, closed, keys, root)), "ms")
	}

	evict0 := env.evictions()
	settle()
	b0, _ := allocBytes()
	rungs := ladderRungs(spec, ladderTime)
	res := runLadder(r, env, rungs, schedule(r.seed, rungs, len(keys)), keys, root)
	b1, _ := allocBytes()
	var done int
	maxRPS := 0.0
	for i, rs := range res {
		done += len(rs.lat)
		if rs.meets(spec.limit, r.nproc) {
			maxRPS = rungs[i].rate
		}
	}
	ref := res[spec.ref]
	p99, pct, windows := windowedTail(ref.lat)
	r.e2e("p50_ms", median(ref.lat), "ms")
	r.e2e("max_rps", maxRPS, "1/s")
	r.e2e("alloc_mb", float64(b1-b0)/(1<<20)/float64(max(done, 1)), "MB")
	if r.primary {
		notes := ladderNotes(spec, rungs, res, r.nproc)
		notes["reference_tail_ms"], notes["reference_tail_pct"], notes["reference_tail_windows"] = p99, pct, windows
		r.notes[spec.name] = notes
	}
	if !r.traced() {
		return nil
	}
	for i, rs := range res {
		suffix := fmt.Sprintf(".r%g", rungs[i].rate)
		p99, _ := tail(rs.lat)
		late, _ := tail(rs.late)
		r.layer("loadgen.p50_ms"+suffix, median(rs.lat), "ms")
		r.layer("loadgen.p99_ms"+suffix, p99, "ms")
		r.layer("loadgen.late_p99_ms"+suffix, late, "ms")
	}
	if spec.budget == nil {
		vis, err := visibility(r, env, keys, 200)
		if err != nil {
			return err
		}
		r.layer("runlog.visible_ratio", vis, "ratio")
		return nil
	}
	var total, hits, shared, shed int
	for _, rs := range res {
		total += len(rs.lat)
		hits += rs.outcomes["hit"]
		shared += rs.outcomes["shared"]
		shed += rs.shed
	}
	total = max(total, 1)
	r.layer("serve.hit_ratio", float64(hits)/float64(total), "ratio")
	r.layer("serve.shared_ratio", float64(shared)/float64(total), "ratio")
	r.layer("serve.shed_ratio", float64(shed)/float64(total), "ratio")
	r.layer("serve.evictions", float64(env.evictions()-evict0), "count")
	stages, err := missStages(r, env, keys, 40)
	if err != nil {
		return err
	}
	for _, st := range []string{"admission-wait", "engine", "render"} {
		name := "serve." + strings.ReplaceAll(st, "-", "_") + "_ms"
		r.layer(name, median(stages[st]), "ms")
	}
	return nil
}

// refShare is the share of the ladder's time the reference rung gets,
// for enough samples beyond its tail percentile; the other rungs split
// the rest.
const refShare = 0.75

// ladderRungs splits the ladder's time over its rungs.
func ladderRungs(spec serveSpec, d time.Duration) []rung {
	ref := time.Duration(float64(d) * refShare)
	share := (d - ref) / time.Duration(len(spec.rungs)-1)
	out := make([]rung, len(spec.rungs))
	for i, rate := range spec.rungs {
		out[i] = rung{rate: rate, dur: share}
		if i == spec.ref {
			out[i].dur = ref
		}
	}
	return out
}

func ladderNotes(spec serveSpec, rungs []rung, res []*rungStats, conns int) map[string]any {
	var rs []map[string]any
	for i, s := range res {
		p99, p := tail(s.lat)
		rs = append(rs, map[string]any{"rate": rungs[i].rate, "seconds": rungs[i].dur.Seconds(),
			"samples": len(s.lat), "failed": s.failed, "p50_ms": median(s.lat), "tail_ms": p99,
			"tail_pct": p, "backlog_start": s.backlogStart, "backlog_end": s.backlogEnd, "dropped": s.dropped})
	}
	return map[string]any{"open_loop": "seeded Poisson arrivals", "connections": conns,
		"limit_p99_ms": spec.limit, "reference_rate": spec.rungs[spec.ref],
		"reference_samples": len(res[spec.ref].lat), "rungs": rs}
}

// evictions reads the server's LRU eviction counter from /metrics.
func (e *serveEnv) evictions() int64 {
	res := e.get("/metrics")
	for _, line := range strings.Split(string(res.body), "\n") {
		var n int64
		if _, err := fmt.Sscanf(line, "armvirt_cache_evictions_total %d", &n); err == nil {
			return n
		}
	}
	return 0
}

// visibility measures the share of responses whose ledger entry is
// already readable at /v1/runs/{id} when the client asks right after the
// body arrives, over a second connection.
func visibility(r *run, env *serveEnv, keys []string, n int) (float64, error) {
	other := &http.Client{Timeout: 30 * time.Second, Transport: &http.Transport{MaxConnsPerHost: 1}}
	defer other.CloseIdleConnections()
	rng := rand.New(rand.NewSource(r.seed))
	seen := 0
	for i := 0; i < n; i++ {
		res, ok := env.fetch(r, keys[rng.Intn(len(keys))])
		r.count(ok)
		if res.run == "" {
			return 0, errors.New("response without X-Armvirt-Run")
		}
		if getWith(other, env.base+"/v1/runs/"+res.run).status == http.StatusOK {
			seen++
		}
	}
	return float64(seen) / float64(n), nil
}

// missStages requests up to n keys that the churned cache misses and
// collects each miss's ledger stage durations, in ms, by span name.
func missStages(r *run, env *serveEnv, keys []string, n int) (map[string][]float64, error) {
	out := make(map[string][]float64)
	rng := rand.New(rand.NewSource(r.seed + 1))
	for i, misses := 0, 0; i < 4*n && misses < n; i++ {
		res, ok := env.fetch(r, keys[rng.Intn(len(keys))])
		r.count(ok)
		if res.cache != "miss" {
			continue
		}
		misses++
		entry := env.get("/v1/runs/" + res.run)
		for try := 0; try < 1000 && entry.status == http.StatusNotFound && entry.err == nil; try++ {
			// The entry may land just after the body (the ordering the
			// visible ratio measures); wait for it.
			time.Sleep(time.Millisecond)
			entry = env.get("/v1/runs/" + res.run)
		}
		if entry.err != nil || entry.status != http.StatusOK {
			return nil, fmt.Errorf("ledger entry %s: status %d, %v", res.run, entry.status, entry.err)
		}
		var e runlog.Entry
		if err := json.Unmarshal(entry.body, &e); err != nil {
			return nil, err
		}
		e.EachSpan(func(s *runlog.Span) {
			out[s.Name] = append(out[s.Name], float64(s.DurUS)/1e3)
		})
	}
	return out, nil
}
