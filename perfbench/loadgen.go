package main

import (
	"math"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// rung is one step of the open-loop ladder: a fixed offered rate held
// for a fixed time.
type rung struct {
	rate float64 // requests per second
	dur  time.Duration
}

// arrival is one scheduled request: when it is due, relative to the
// ladder's start, which key it asks for, and which rung it belongs to.
type arrival struct {
	at   time.Duration
	key  int
	rung int
}

// keyStream returns successive draws from seeded permutations of n keys.
// Every key is equally likely at every position, and each block of n
// draws holds every key once, so the key mix of a run does not depend on
// its seed; only the order does.
func keyStream(rng *rand.Rand, n int) func() int {
	var perm []int
	return func() int {
		if len(perm) == 0 {
			perm = rng.Perm(n)
		}
		k := perm[0]
		perm = perm[1:]
		return k
	}
}

// schedule draws the ladder's arrivals from seed: Poisson arrivals
// (exponential gaps) at each rung's rate, each asking for the next key
// of a keyStream over nkeys. The same seed always gives the same
// schedule.
func schedule(seed int64, rungs []rung, nkeys int) []arrival {
	rng := rand.New(rand.NewSource(seed))
	next := keyStream(rng, nkeys)
	var out []arrival
	var start time.Duration
	for i, rg := range rungs {
		end := start + rg.dur
		t := start
		for {
			t += time.Duration(rng.ExpFloat64() / rg.rate * float64(time.Second))
			if t >= end {
				break
			}
			out = append(out, arrival{at: t, key: next(), rung: i})
		}
		start = end
	}
	return out
}

// growing reports whether a rung's backlog grew: whether more requests
// were waiting at its end than at its start. Both counts are instants
// that include the requests in service, so up to one request per
// connection, plus what arrives within one latency limit, counts as no
// growth: an unsaturated server drains that much within the limit. A
// saturated rung grows by its whole excess of arrivals over capacity.
func (s *rungStats) growing(conns int, limitMS float64) bool {
	return s.backlogEnd > s.backlogStart+conns+int(s.rate*limitMS/1e3)
}

// meets reports whether a rung counts toward max_rps: no failed request,
// a tail latency within limit, and no growing backlog.
func (s *rungStats) meets(limit float64, conns int) bool {
	p99, _ := tail(s.lat)
	return s.failed == 0 && p99 <= limit && !s.growing(conns, limit)
}

// rungStats is what one rung measured. Latencies run from when each
// request was due, so a stall delays every request queued behind it; a
// failed request is +Inf and so misses any limit.
type rungStats struct {
	rate     float64   // offered, requests per second
	lat      []float64 // ms, due to response end
	late     []float64 // ms the generator handed the request over after it was due
	failed   int
	shed     int // 429 answers
	outcomes map[string]int
	// backlogStart and backlogEnd count requests already due but not yet
	// answered, at the rung's start and end.
	backlogStart, backlogEnd int
	dropped                  int // still unsent when the ladder ended
}

// runLadder plays the schedule against env from one dispatcher and
// nproc connections, and returns each rung's stats. Requests still
// waiting for a connection when the last rung ends are not sent; they
// count in that rung's backlog.
func runLadder(r *run, env *serveEnv, rungs []rung, sched []arrival, keys []string, parent int) []*rungStats {
	res := make([]*rungStats, len(rungs))
	for i := range res {
		res[i] = &rungStats{rate: rungs[i].rate, outcomes: make(map[string]int)}
	}
	queue := make(chan arrival, len(sched)) // every arrival fits: the dispatcher never blocks
	var completed atomic.Int64
	var stop atomic.Bool
	var mu sync.Mutex
	var wg sync.WaitGroup
	t0 := time.Now().Add(10 * time.Millisecond)
	for w := 0; w < r.nproc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for a := range queue {
				if stop.Load() {
					mu.Lock()
					res[a.rung].dropped++
					mu.Unlock()
					continue
				}
				var resp response
				var ok bool
				key := keys[a.key]
				r.tr.do("GET "+key, parent, func(int) { resp, ok = env.fetch(r, key) })
				ms := float64(time.Since(t0.Add(a.at)).Nanoseconds()) / 1e6
				mu.Lock()
				rs := res[a.rung]
				r.count(ok)
				if !ok {
					rs.failed++
					ms = math.Inf(1)
				}
				if resp.status == http.StatusTooManyRequests {
					rs.shed++
				}
				rs.outcomes[resp.cache]++
				rs.lat = append(rs.lat, ms)
				mu.Unlock()
				completed.Add(1)
			}
		}()
	}

	// backlog is the number of arrivals due before the i-th that have not
	// been answered.
	backlog := func(i int) int { return i - int(completed.Load()) }
	var boundary time.Duration
	next := 0
	for ri, rg := range rungs {
		time.Sleep(time.Until(t0.Add(boundary)))
		res[ri].backlogStart = backlog(next)
		boundary += rg.dur
		for ; next < len(sched) && sched[next].rung == ri; next++ {
			a := sched[next]
			due := t0.Add(a.at)
			time.Sleep(time.Until(due))
			late := float64(time.Since(due).Nanoseconds()) / 1e6
			queue <- a
			mu.Lock()
			res[ri].late = append(res[ri].late, late)
			mu.Unlock()
		}
	}
	time.Sleep(time.Until(t0.Add(boundary)))
	res[len(res)-1].backlogEnd = backlog(next)
	for ri := 0; ri+1 < len(res); ri++ {
		res[ri].backlogEnd = res[ri+1].backlogStart
	}
	stop.Store(true)
	close(queue)
	wg.Wait()
	return res
}
