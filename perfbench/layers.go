package main

import (
	"context"
	"net/http"
	"net/http/httptest"
	"time"

	"armvirt/internal/bench"
	"armvirt/internal/hw"
	"armvirt/internal/hyp/kvm"
	"armvirt/internal/micro"
	"armvirt/internal/platform"
	"armvirt/internal/runlog"
	"armvirt/internal/serve"
	"armvirt/internal/sim"
)

// probeRepeats is how many timed batches each direct-call probe takes;
// it reports the median batch.
const probeRepeats = 9

// probe times batches of n calls of fn and returns the median time and
// allocation count per call.
func probe(r *run, name string, n int, fn func(n int)) (nsPerOp, allocsPerOp float64) {
	return probePrepared(r, name, n, func(n int) func() { return func() { fn(n) } })
}

// probePrepared is probe for calls that need inputs built outside the
// timing: prepare builds them for a batch of n and returns the timed part.
func probePrepared(r *run, name string, n int, prepare func(n int) (timed func())) (nsPerOp, allocsPerOp float64) {
	var ns, allocs []float64
	for i := 0; i < probeRepeats; i++ {
		timed := prepare(n)
		_, m0 := allocBytes()
		d := r.tr.do(name, 0, func(int) { timed() })
		_, m1 := allocBytes()
		ns = append(ns, float64(d)/float64(n))
		allocs = append(allocs, float64(m1-m0)/float64(n))
	}
	return median(ns), median(allocs)
}

// probeLayers measures single layers by direct calls: engine primitives,
// machine construction, the path-cost model and the serving tier's
// in-process paths.
func probeLayers(r *run) error {
	ns, _ := probe(r, "sim.NewEngine", 2000, func(n int) {
		for i := 0; i < n; i++ {
			_ = sim.NewEngine()
		}
	})
	r.layer("sim.new_engine_ns", ns, "ns")
	probeEngine(r)

	ns, _ = probe(r, "platform.ARMMachine", 50, func(n int) {
		for i := 0; i < n; i++ {
			_ = platform.ARMMachine()
		}
	})
	r.layer("platform.machine_new_us.arm", ns/1e3, "us")
	ns, _ = probe(r, "platform.X86Machine", 50, func(n int) {
		for i := 0; i < n; i++ {
			_ = platform.X86Machine(false)
		}
	})
	r.layer("platform.machine_new_us.x86", ns/1e3, "us")
	// A hypervisor boots on a fresh machine, built outside the timing.
	ns, _ = probePrepared(r, "kvm.New", 50, func(n int) func() {
		ms := make([]*hw.Machine, n)
		for i := range ms {
			ms[i] = platform.ARMMachine()
		}
		return func() {
			for _, m := range ms {
				_ = kvm.New(m, platform.KVMARMCosts(), false)
			}
		}
	})
	r.layer("platform.hyp_new_us", ns/1e3, "us")
	newHyp := bench.Factories()["KVM ARM"]
	ns, _ = probe(r, "micro.MeasurePathCosts", 1, func(n int) {
		for i := 0; i < n; i++ {
			_ = micro.MeasurePathCosts(newHyp)
		}
	})
	r.layer("micro.path_costs_ms", ns/1e6, "ms")
	return probeServe(r)
}

// probeEngine rebuilds the engine microbenchmarks of the sim package
// from its public API: event dispatch, a proc park/resume round trip,
// and a queue send/receive.
func probeEngine(r *run) {
	const n = 20000
	ns, allocs := probe(r, "sim.EventDispatch", n, func(n int) {
		e := sim.NewEngine()
		count := 0
		for i := 0; i < n; i++ {
			e.After(1, func() { count++ })
			e.Run()
		}
	})
	r.layer("sim.event_dispatch_ns", ns, "ns")
	r.layer("sim.event_dispatch_allocs", allocs, "count")
	ns, allocs = probe(r, "sim.ProcSwitch", n, func(n int) {
		e := sim.NewEngine()
		e.Go("sleeper", func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				p.Sleep(1)
			}
		})
		e.Run()
	})
	r.layer("sim.proc_switch_ns", ns, "ns")
	r.layer("sim.proc_switch_allocs", allocs, "count")
	ns, allocs = probe(r, "sim.QueueSendRecv", n, func(n int) {
		e := sim.NewEngine()
		q := sim.NewQueue[int](e, "q")
		e.Go("recv", func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				q.Recv(p)
			}
		})
		e.Go("send", func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				q.Send(i)
				p.Sleep(1)
			}
		})
		e.Run()
	})
	r.layer("sim.queue_sendrecv_ns", ns, "ns")
	r.layer("sim.queue_sendrecv_allocs", allocs, "count")
}

// probeServe prices the serving tier's in-process hit path: the cache
// lookup, the run ledger's per-request work, the whole handler, and what
// loopback HTTP adds on top of the handler.
func probeServe(r *run) error {
	const key = "T2"
	c := serve.NewCache(64 << 20)
	ctx := context.Background()
	val := []byte("primed")
	if _, _, err := c.GetOrCompute(ctx, key, func() ([]byte, error) { return val, nil }); err != nil {
		return err
	}
	ns, _ := probe(r, "serve.Cache.GetOrCompute", 20000, func(n int) {
		for i := 0; i < n; i++ {
			c.GetOrCompute(ctx, key, nil) // primed: a hit cannot fail
		}
	})
	r.layer("serve.cache_hit_ns", ns, "ns")

	lg, err := runlog.Open("", 0, 0)
	if err != nil {
		return err
	}
	defer lg.Close() // memory-only: nothing to flush
	ns, _ = probe(r, "runlog.Trace", 2000, func(n int) {
		for i := 0; i < n; i++ {
			tr := lg.Begin("experiment")
			tr.SetTarget(key, "json")
			sp := tr.Start("cache")
			sp.End()
			lg.Append(tr.Finish(http.StatusOK))
		}
	})
	r.layer("runlog.trace_us", ns/1e3, "us")

	env, err := startServer(r, serve.Config{})
	if err != nil {
		return err
	}
	defer env.close()
	path := "/v1/experiments/" + key + "?format=json"
	want := r.pins.Bodies[bodyKey(key, "json")].SHA256
	if err := env.prime(r, []string{bodyKey(key, "json")}); err != nil {
		return err
	}
	var handler, rtt []float64
	h := env.srv.Handler()
	for i := 0; i < 2000; i++ {
		req := httptest.NewRequest(http.MethodGet, path, nil)
		rec := httptest.NewRecorder()
		t0 := time.Now()
		h.ServeHTTP(rec, req)
		handler = append(handler, float64(time.Since(t0).Nanoseconds())/1e3)
		r.count(rec.Code == http.StatusOK && digest(rec.Body.Bytes()) == want)

		t0 = time.Now()
		res := env.get(path)
		rtt = append(rtt, float64(time.Since(t0).Nanoseconds())/1e3)
		r.count(res.err == nil && res.status == http.StatusOK && digest(res.body) == want)
	}
	r.layer("serve.handler_us", median(handler), "us")
	r.layer("serve.http_us", median(rtt)-median(handler), "us")
	return nil
}
