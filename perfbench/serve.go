package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"runtime"
	"sync"
	"time"

	"rtlrepair/internal/bench"
	"rtlrepair/internal/fleet"
	"rtlrepair/internal/obs"
	"rtlrepair/internal/serve"
)

// Generator limits: a request is late when it is sent after its due
// time; the run is invalid when any request is later than maxLate.
// Pending fresh requests are polled every observeTick, and the run
// waits at most drainTimeout after the last send for their verdicts.
const (
	maxLate      = 250 * time.Millisecond
	observeTick  = 2 * time.Millisecond
	drainTimeout = 60 * time.Second
)

// request is one scheduled request, ready to send.
type request struct {
	arrival
	d    *design
	body []byte
	req  *serve.Request
}

// served is what the generator saw of one request.
type served struct {
	latency   float64 // ms from due time to verdict; lost if never answered
	late      time.Duration
	ack       float64 // ms from send to the submission's answer
	queueWait float64 // fresh only, from the job view
	run       float64 // fresh only, from the job view
	result    *serve.RepairResult
	done      time.Duration // from the phase start
}

// phase is one timed open-loop run against a cluster.
type phase struct {
	c      *cluster
	client *http.Client
	reqs   []*request
	log    func(string, ...any)

	start      time.Time
	mu         sync.Mutex
	out        []served
	bad        int // failed, refused, timed out or took the wrong cache path
	mismatches int // verdicts that differ from the golden
}

func (p *phase) fail(i int, format string, args ...any) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.bad++
	p.out[i].latency = lost
	p.log("FAIL %s %s #%d: %s", p.reqs[i].Kind, p.reqs[i].Design, i, fmt.Sprintf(format, args...))
}

// finish records a verdict for request i observed at now. A verdict
// that differs from the golden is counted as a mismatch; it still
// completed, so its latency counts as measured.
func (p *phase) finish(i int, now time.Time, v *serve.JobView) {
	r := p.reqs[i]
	got := renderWire(v.Result)
	p.mu.Lock()
	defer p.mu.Unlock()
	s := &p.out[i]
	s.latency = ms(now.Sub(p.start.Add(r.At)))
	s.result = v.Result
	s.done = now.Sub(p.start)
	if r.Kind == fresh {
		s.queueWait, s.run = float64(v.QueueWaitMS), float64(v.RunMS)
	}
	if got != r.d.served {
		p.mismatches++
		p.log("MISMATCH %s %s #%d: %s", r.Kind, r.Design, i, verdictDiff(r.d.served, got))
	}
}

// pendingJob is a fresh request whose verdict is not yet observed.
type pendingJob struct {
	i   int
	id  string
	job *serve.Job
}

// run sends every request at its due time over conns connections and
// observes the fresh verdicts. It returns the largest gap between two
// observation polls.
func (p *phase) run(conns int) time.Duration {
	p.out = make([]served, len(p.reqs))
	var pmu sync.Mutex
	var pending []*pendingJob
	sent := make(chan struct{})

	send := func(i int) {
		r := p.reqs[i]
		due := p.start.Add(r.At)
		t0 := time.Now()
		p.mu.Lock()
		p.out[i].late = t0.Sub(due)
		p.mu.Unlock()
		status, v, err := post(p.client, p.c.url+"/v1/repair", r.body)
		ack := time.Now()
		p.mu.Lock()
		p.out[i].ack = ms(ack.Sub(t0))
		p.mu.Unlock()
		switch {
		case err != nil:
			p.fail(i, "%v", err)
		case r.Kind == hot && (status != http.StatusOK || !v.Cached || v.Result == nil):
			p.fail(i, "hot request not answered from the result cache (HTTP %d, cached=%v)", status, v.Cached)
		case r.Kind == hot:
			p.finish(i, ack, v)
		case v.Cached:
			p.fail(i, "fresh request answered from the result cache")
		case v.State == serve.StateDone:
			p.finish(i, ack, v)
		default:
			pmu.Lock()
			pending = append(pending, &pendingJob{i: i, id: v.ID})
			pmu.Unlock()
		}
	}

	// The observer polls the pending fresh jobs on their nodes until
	// every request was sent and every verdict seen, or the drain limit.
	var maxGap time.Duration
	observed := make(chan struct{})
	go func() {
		defer close(observed)
		tick := time.NewTicker(observeTick)
		defer tick.Stop()
		last := time.Now()
		var drainBy time.Time
		for now := range tick.C {
			if gap := now.Sub(last); gap > maxGap {
				maxGap = gap
			}
			last = now
			pmu.Lock()
			keep := pending[:0]
			for _, pj := range pending {
				if pj.job == nil {
					pj.job = p.c.job(pj.id)
				}
				if pj.job == nil {
					keep = append(keep, pj)
					continue
				}
				select {
				case <-pj.job.Done():
					v := pj.job.View()
					if v.Cached {
						p.fail(pj.i, "fresh job %s was served from the result cache", pj.id)
					} else {
						p.finish(pj.i, time.Now(), &v)
					}
				default:
					keep = append(keep, pj)
				}
			}
			pending = keep
			left := len(pending)
			pmu.Unlock()
			select {
			case <-sent:
				if drainBy.IsZero() {
					drainBy = now.Add(drainTimeout)
				}
				if left == 0 {
					return
				}
				if now.After(drainBy) {
					pmu.Lock()
					for _, pj := range pending {
						p.fail(pj.i, "no verdict %s after the last send", drainTimeout)
					}
					pending = nil
					pmu.Unlock()
					return
				}
			default:
			}
		}
	}()

	work := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				send(i)
			}
		}()
	}
	p.start = time.Now().Add(50 * time.Millisecond)
	for i, r := range p.reqs {
		if d := time.Until(p.start.Add(r.At)); d > 0 {
			time.Sleep(d)
		}
		work <- i
	}
	close(work)
	wg.Wait()
	close(sent)
	<-observed
	return maxGap
}

// phaseStats is what one timed phase measured.
type phaseStats struct {
	all, hotLat, freshLat, ack, queueWait, run []float64
	maxLate, lastDone                          time.Duration
	maxGap                                     time.Duration
	failed, mismatches, completed              int
	passes                                     float64 // pool passes the fresh requests make
	repairWallS                                float64
}

func (p *phase) stats(poolSize int) phaseStats {
	var st phaseStats
	st.failed, st.mismatches = p.bad, p.mismatches
	var freshRuns []float64
	for i, s := range p.out {
		r := p.reqs[i]
		st.all = append(st.all, s.latency)
		if s.late > st.maxLate {
			st.maxLate = s.late
		}
		if !math.IsInf(s.latency, 1) {
			st.completed++
		}
		if s.done > st.lastDone {
			st.lastDone = s.done
		}
		if r.Kind == hot {
			st.hotLat = append(st.hotLat, s.latency)
			continue
		}
		st.freshLat = append(st.freshLat, s.latency)
		st.ack = append(st.ack, s.ack)
		if !math.IsInf(s.latency, 1) {
			st.queueWait = append(st.queueWait, s.queueWait)
			st.run = append(st.run, s.run)
		}
		freshRuns = append(freshRuns, s.run)
	}
	// Fresh requests walk the pool in whole passes (see makeSchedule), so
	// their summed engine time over the passes is the time of one pass.
	st.passes = float64(len(freshRuns)) / float64(poolSize)
	st.repairWallS = sum(freshRuns) / 1000 / st.passes
	return st
}

// serveSetup builds the golden requests, starts a cluster in a fresh
// directory and warms it with one golden request per pool design.
func serveSetup(cfg config, client *http.Client, pool []string, tracer *obs.Tracer) (*cluster, []*design, int, error) {
	var designs []*design
	for _, n := range pool {
		d, err := loadServeDesign(n)
		if err != nil {
			return nil, nil, 0, err
		}
		designs = append(designs, d)
	}
	dir, err := os.MkdirTemp(cfg.scratch, "serve-")
	if err != nil {
		return nil, nil, 0, err
	}
	c, err := startCluster(dir, tracer)
	if err != nil {
		os.RemoveAll(dir)
		return nil, nil, 0, err
	}
	return c, designs, c.warm(client, designs, cfg.conns, cfg.log), nil
}

// requests renders a schedule into ready-to-send requests.
func requests(sched []arrival, designs []*design) ([]*request, error) {
	byName := map[string]*design{}
	for _, d := range designs {
		byName[d.name] = d
	}
	out := make([]*request, len(sched))
	for i, a := range sched {
		d := byName[a.Design]
		r := &request{arrival: a, d: d, req: &serve.Request{}}
		if err := json.Unmarshal(d.body, r.req); err != nil {
			return nil, err
		}
		r.body = d.body
		if a.Kind == fresh {
			r.req.Options.TimeoutMS = a.TimeoutMS
			body, err := json.Marshal(r.req)
			if err != nil {
				return nil, err
			}
			r.body = body
		}
		out[i] = r
	}
	return out, nil
}

// onArtifactHome returns the schedule's filter for fresh timeouts: it
// keeps a fresh request only if the router sends it to the home node of
// its design's golden request, the node that built the design's
// frontend in the warm pass. A fresh request on the other node would
// take the frontend from the shared store, whose rehydrated frontend
// reports change positions in its printed source instead of the
// request's (a defect of the shared artifact tier that this filter
// keeps out of the timed phase).
func onArtifactHome(designs []*design, names []string) (func(string, int64) bool, error) {
	reqs := map[string]serve.Request{}
	home := map[string]string{}
	for _, d := range designs {
		var r serve.Request
		if err := json.Unmarshal(d.body, &r); err != nil {
			return nil, err
		}
		reqs[d.name] = r
		home[d.name] = fleet.RankNodes(names, serve.ResultKey(&r))[0]
	}
	return func(design string, timeoutMS int64) bool {
		r := reqs[design]
		r.Options.TimeoutMS = timeoutMS
		return fleet.RankNodes(names, serve.ResultKey(&r))[0] == home[design]
	}, nil
}

// runServe is the serve workload.
func runServe(cfg config) (*outcome, error) {
	var all []string
	for _, b := range bench.Registry() {
		all = append(all, b.Name)
	}
	pool := servePool(all)
	transport := &http.Transport{MaxConnsPerHost: cfg.conns, MaxIdleConnsPerHost: cfg.conns}
	defer transport.CloseIdleConnections()
	client := &http.Client{Transport: transport}

	out := &outcome{m: metrics{}}
	var c *cluster
	// closeCluster stops the current cluster; the deferred call covers
	// the error paths.
	closeCluster := func() error {
		if c == nil {
			return nil
		}
		err := c.close()
		c = nil
		return err
	}
	defer closeCluster()
	var designs []*design
	var setups []float64
	for i := 0; i < cfg.setups; i++ {
		if err := closeCluster(); err != nil {
			return nil, err
		}
		// Start each set-up, and the timed phase, from a collected heap so
		// garbage left by the previous one does not land in its figures.
		runtime.GC()
		t0 := time.Now()
		var bad int
		var err error
		if c, designs, bad, err = serveSetup(cfg, client, pool, nil); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		out.failed += bad
	}
	cfg.log("setup: %d pool designs on 2 nodes, median %.3f s of %v", len(pool), median(setups), setups)

	onHome, err := onArtifactHome(designs, c.names)
	if err != nil {
		return nil, err
	}
	sched := makeSchedule(cfg.seed, cfg.rate, int(cfg.runTime/time.Second), pool, onHome)
	reqs, err := requests(sched, designs)
	if err != nil {
		return nil, err
	}
	before := c.counters()
	p := &phase{c: c, client: client, reqs: reqs, log: cfg.log}
	runtime.GC()
	c0 := cpuTime()
	maxGap := p.run(cfg.conns)
	phaseCPU := (cpuTime() - c0).Seconds()
	d := delta(before, c.counters())
	st := p.stats(len(pool))
	st.maxGap = maxGap
	out.attempted += len(reqs)
	out.failed += st.failed + st.mismatches
	// Every fresh request must have found its frontend in the artifact
	// tier (memory or shared store), never built it cold.
	if cold := d["serve.cache.artifact.misses"] - d["serve.cas.artifact.hits"]; cold != 0 {
		cfg.log("FAIL %d fresh requests built their frontend cold instead of using the artifact tier", cold)
		out.failed += int(cold)
	}
	cfg.log("phase: %d requests (%d hot, %d fresh) at %.1f/s over %d conns: %d failed, %d verdict mismatches; late max %.1f ms; observe gap max %.1f ms",
		len(reqs), len(st.hotLat), len(st.freshLat), cfg.rate, cfg.conns, st.failed, st.mismatches, ms(st.maxLate), ms(st.maxGap))
	cfg.log("  hot p50 %.2f ms tail(p%d) %.2f ms | fresh p50 %.1f ms tail(p%d) %.1f ms | run p50 %.1f ms | queue p50 %.1f ms",
		median(st.hotLat), tailPercentile(len(st.hotLat)), tail(st.hotLat),
		median(st.freshLat), tailPercentile(len(st.freshLat)), tail(st.freshLat), median(st.run), median(st.queueWait))
	if st.maxLate > maxLate {
		cfg.log("FAIL generator fell behind: a request was sent %.1f ms late (limit %s)", ms(st.maxLate), maxLate)
		out.behind = true
	}

	out.m["setup_s"] = median(setups)
	out.m["repair_wall_s"] = st.repairWallS
	out.m["latency_p50_ms"] = median(st.all)
	out.m["latency_tail_ms"] = tail(st.all)
	out.m["completed_per_s"] = float64(st.completed) / st.lastDone.Seconds()
	out.m["cpu_s"] = phaseCPU / st.passes
	out.m["peak_rss_mb"] = peakRSSMB()
	cfg.log("  cpu %.3f s per pool pass (%.3f s in the phase), peak rss %.1f MB",
		out.m["cpu_s"], phaseCPU, out.m["peak_rss_mb"])
	cfg.log("  latency tail is p%d of %d requests", tailPercentile(len(st.all)), len(st.all))
	if !cfg.trace {
		return out, closeCluster()
	}

	// Traced run: serving-layer numbers from the untraced phase above,
	// engine layers from a second, traced cluster running the same
	// schedule.
	servingMetrics(out.m, st, d)
	out.m["loadgen.conns"] = float64(cfg.conns)
	out.m["loadgen.offered_rps"] = float64(len(reqs)) / sched[len(sched)-1].At.Seconds()
	if out.m["fleet.router_hop_ms"], err = c.routerHop(client, designs, 3); err != nil {
		return nil, err
	}
	if err := closeCluster(); err != nil {
		return nil, err
	}
	if err := timeOutside(cfg, out.m, reqs, p.out, designs); err != nil {
		return nil, err
	}
	return out, traceServe(cfg, client, pool, reqs, st.repairWallS, out)
}

// traceServe runs the schedule again on a traced cluster and charges
// the fresh jobs' engine spans to their layers.
func traceServe(cfg config, client *http.Client, pool []string, reqs []*request, untracedWallS float64, out *outcome) error {
	tracerStart := time.Now()
	tracer := obs.New()
	// The requests keep the untraced set-up's designs: same bodies, same
	// expected verdicts.
	c, _, bad, err := serveSetup(cfg, client, pool, tracer)
	if err != nil {
		return err
	}
	defer c.close()
	out.failed += bad
	before := c.counters()
	p := &phase{c: c, client: client, reqs: reqs, log: cfg.log}
	runtime.GC()
	fromUS := time.Since(tracerStart).Microseconds()
	p.run(cfg.conns)
	d := delta(before, c.counters())
	st := p.stats(len(pool))
	out.attempted += len(reqs)
	out.failed += st.failed + st.mismatches
	layers, err := selfTimes(tracer, fromUS)
	if err != nil {
		return err
	}
	m := out.m
	for k, v := range layers {
		if k != "core.frontend_ms" && k != "lint.preprocess_ms" {
			m[k] = v
		}
	}
	m["sat.conflicts"] = float64(d["sat.conflicts"])
	m["sat.propagations"] = float64(d["sat.propagations"])
	m["sat.decisions"] = float64(d["sat.decisions"])
	m["sat.learned"] = float64(d["sat.learned"])
	m["sat.props_per_s"] = 0
	if m["sat.solve_ms"] > 0 {
		m["sat.props_per_s"] = m["sat.propagations"] / (m["sat.solve_ms"] / 1000)
	}
	// CNF sizes, abstract-interpretation counts and found attempts are
	// not visible from outside a served job.
	for _, k := range []string{"smt.cnf_vars", "smt.cnf_clauses", "smt.absint_rewrites",
		"smt.absint_guard_fallbacks", "core.attempts_found"} {
		m[k] = 0
	}
	m["core.attempts_ran"] = float64(d["portfolio.attempts.ran"])
	m["core.extended_cycles"] = float64(d["synth.extended_cycles"])
	m["core.prefix_cycles"] = float64(d["portfolio.prefix.cycles"])
	m["core.windows"] = float64(d["synth.windows"])
	m["core.solver_builds"] = float64(d["synth.solver_builds"])
	// The serve workload's traced wall is the fresh jobs' engine time;
	// the overhead compares the per-pass engine time of the two phases.
	var spanned float64
	for _, l := range engineLayers {
		if l != "core.frontend_ms" && l != "lint.preprocess_ms" {
			spanned += m[l]
		}
	}
	m["trace.wall_ms"] = sum(st.run)
	m["trace.overhead_ms"] = (st.repairWallS - untracedWallS) * 1000
	m["trace.coverage_pct"] = 100 * spanned / sum(st.run)
	reportShares(cfg, m, sum(st.run))
	return nil
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// servingMetrics fills the serving-layer metrics of a timed phase from
// what the generator saw and the phase's counter deltas.
func servingMetrics(m metrics, st phaseStats, d map[string]int64) {
	m["serve.hot_p50_ms"], m["serve.hot_tail_ms"] = median(st.hotLat), tail(st.hotLat)
	m["serve.fresh_p50_ms"], m["serve.fresh_tail_ms"] = median(st.freshLat), tail(st.freshLat)
	m["serve.submit_ack_p50_ms"], m["serve.submit_ack_tail_ms"] = median(st.ack), tail(st.ack)
	m["serve.queue_wait_p50_ms"], m["serve.queue_wait_tail_ms"] = median(st.queueWait), tail(st.queueWait)
	m["serve.run_p50_ms"], m["serve.run_tail_ms"] = median(st.run), tail(st.run)
	m["serve.result_hit_ratio"] = ratio(d["serve.cache.result.hits"]+d["serve.cas.result.hits"],
		d["serve.cache.result.hits"]+d["serve.cache.result.misses"])
	m["serve.artifact_hit_ratio"] = ratio(d["serve.cache.artifact.hits"]+d["serve.cas.artifact.hits"],
		d["serve.cache.artifact.hits"]+d["serve.cache.artifact.misses"])
	m["serve.result_cas_hits"] = float64(d["serve.cas.result.hits"])
	m["serve.jobs.deduped"] = float64(d["serve.jobs.deduped"])
	m["fleet.wal_syncs_per_accept"] = ratio(d["wal.syncs"], d["wal.accepted"])
	m["fleet.router_retries"] = float64(d["router.retries"])
	m["fleet.router_forward_errors"] = float64(d["router.forward_errors"])
	m["loadgen.late_ms"] = ms(st.maxLate)
	m["loadgen.observe_gap_ms"] = ms(st.maxGap)
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
