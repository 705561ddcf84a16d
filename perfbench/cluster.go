package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"rtlrepair/internal/fleet"
	"rtlrepair/internal/obs"
	"rtlrepair/internal/serve"
)

// cluster is an in-process fleet on loopback: two single-slot nodes,
// each with a write-ahead log, sharing one content-addressed store,
// behind a router.
type cluster struct {
	dir    string // holds the logs and the store; removed by close
	names  []string
	nodes  map[string]*fleet.Node
	urls   map[string]string
	regs   map[string]*obs.Registry
	router *fleet.Router
	rreg   *obs.Registry
	url    string

	servers []*http.Server
	serving sync.WaitGroup
}

// startCluster starts the fleet with its logs and store under dir. A
// non-nil tracer is handed to every node through serve.Config.Obs.
func startCluster(dir string, tracer *obs.Tracer) (*cluster, error) {
	c := &cluster{
		dir:   dir,
		names: []string{"n1", "n2"},
		nodes: map[string]*fleet.Node{},
		urls:  map[string]string{},
		regs:  map[string]*obs.Registry{},
		rreg:  obs.NewRegistry(),
	}
	for _, name := range c.names {
		reg := obs.NewRegistry()
		node, err := fleet.NewNode(fleet.NodeConfig{
			Name:        name,
			WALPath:     filepath.Join(dir, name+".wal"),
			ArtifactDir: filepath.Join(dir, "cas"),
			Serve: serve.Config{
				Slots:            1,
				PortfolioWorkers: 1,
				JobTimeout:       repairTimeout,
				Obs:              obs.Scope{Tracer: tracer, Metrics: reg},
			},
		})
		if err != nil {
			c.close()
			return nil, fmt.Errorf("node %s: %w", name, err)
		}
		c.nodes[name], c.regs[name] = node, reg
		if c.urls[name], err = c.listen(node.Handler()); err != nil {
			c.close()
			return nil, err
		}
	}
	router, err := fleet.NewRouter(fleet.RouterConfig{Nodes: c.urls, Metrics: c.rreg})
	if err != nil {
		c.close()
		return nil, err
	}
	c.router = router
	if c.url, err = c.listen(router.Handler()); err != nil {
		c.close()
		return nil, err
	}
	return c, nil
}

func (c *cluster) listen(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", fmt.Errorf("listen: %w", err)
	}
	srv := &http.Server{Handler: h}
	c.servers = append(c.servers, srv)
	c.serving.Add(1)
	go func() {
		defer c.serving.Done()
		_ = srv.Serve(ln) // returns http.ErrServerClosed after Shutdown
	}()
	return "http://" + ln.Addr().String(), nil
}

// close stops the router, the HTTP servers and the nodes, waits for all
// of them, and removes the cluster's directory.
func (c *cluster) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if c.router != nil {
		c.router.Close()
	}
	var errs []error
	for _, s := range c.servers {
		errs = append(errs, s.Shutdown(ctx))
	}
	c.serving.Wait()
	for _, name := range c.names {
		if n := c.nodes[name]; n != nil {
			errs = append(errs, n.Shutdown(ctx))
		}
	}
	errs = append(errs, os.RemoveAll(c.dir))
	return errors.Join(errs...)
}

// job finds an admitted job on whichever node owns it.
func (c *cluster) job(id string) *serve.Job {
	for _, name := range c.names {
		if j := c.nodes[name].Server().Job(id); j != nil {
			return j
		}
	}
	return nil
}

// counter sums a counter over the nodes' registries.
func (c *cluster) counter(name string) int64 {
	var n int64
	for _, reg := range c.regs {
		n += reg.Counter(name)
	}
	return n
}

// counters snapshots the node, WAL and router counters the serve
// workload checks and reports.
func (c *cluster) counters() map[string]int64 {
	out := map[string]int64{}
	for _, name := range []string{
		"serve.cache.result.hits", "serve.cache.result.misses",
		"serve.cache.artifact.hits", "serve.cache.artifact.misses",
		"serve.cas.result.hits", "serve.cas.artifact.hits", "serve.jobs.deduped",
		"sat.conflicts", "sat.decisions", "sat.propagations", "sat.learned",
		"synth.extended_cycles", "portfolio.prefix.cycles", "synth.windows",
		"synth.solver_builds", "portfolio.attempts.ran",
	} {
		out[name] = c.counter(name)
	}
	for _, n := range c.nodes {
		if w := n.Debug().WAL; w != nil {
			out["wal.accepted"] += w.Accepted
			out["wal.syncs"] += w.Syncs
		}
	}
	out["router.retries"] = c.rreg.Counter("fleet.router.retries")
	out["router.forward_errors"] = c.rreg.Counter("fleet.router.forward_errors")
	return out
}

// delta is after minus before, per counter.
func delta(before, after map[string]int64) map[string]int64 {
	out := make(map[string]int64, len(after))
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}

// post submits a request body and decodes the job view it answers.
func post(client *http.Client, url string, body []byte) (int, *serve.JobView, error) {
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, nil, err
	}
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		return resp.StatusCode, nil, fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	var v serve.JobView
	if err := json.Unmarshal(data, &v); err != nil {
		return resp.StatusCode, nil, fmt.Errorf("job view: %w", err)
	}
	return resp.StatusCode, &v, nil
}

// warm sends every pool design's golden request once through the
// router, conns at a time, waiting for each verdict. It returns the
// number of verdicts that failed or differ from the golden.
func (c *cluster) warm(client *http.Client, designs []*design, conns int, log func(string, ...any)) int {
	work := make(chan *design)
	var mu sync.Mutex
	bad := 0
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for d := range work {
				_, v, err := post(client, c.url+"/v1/repair?wait=1", d.body)
				switch {
				case err != nil:
					log("WARM %s: %v", d.name, err)
				case v.Result == nil || v.State != serve.StateDone:
					log("WARM %s: no verdict (state %s)", d.name, v.State)
				case v.Cached:
					log("WARM %s: answered from cache on a cold fleet", d.name)
				case renderWire(v.Result) != d.served:
					log("WARM %s: %s", d.name, verdictDiff(d.served, renderWire(v.Result)))
				default:
					continue
				}
				mu.Lock()
				bad++
				mu.Unlock()
			}
		}()
	}
	for _, d := range designs {
		work <- d
	}
	close(work)
	wg.Wait()
	return bad
}

// routerHop times each design's hot request through the router and
// sent directly to its home node, alternating the order, and returns
// the difference of the medians.
func (c *cluster) routerHop(client *http.Client, designs []*design, rounds int) (float64, error) {
	var viaRouter, direct []float64
	timed := func(url string, body []byte) (float64, error) {
		t0 := time.Now()
		if _, v, err := post(client, url, body); err != nil || !v.Cached {
			return 0, fmt.Errorf("hot request to %s: cached=%v err=%v", url, v != nil && v.Cached, err)
		}
		return ms(time.Since(t0)), nil
	}
	for r := 0; r < rounds; r++ {
		for _, d := range designs {
			var req serve.Request
			if err := json.Unmarshal(d.body, &req); err != nil {
				return 0, err
			}
			home := c.urls[fleet.RankNodes(c.names, serve.ResultKey(&req))[0]]
			urls := []string{c.url, home}
			if r%2 == 1 {
				urls[0], urls[1] = urls[1], urls[0]
			}
			for _, u := range urls {
				t, err := timed(u+"/v1/repair", d.body)
				if err != nil {
					return 0, err
				}
				if u == c.url {
					viaRouter = append(viaRouter, t)
				} else {
					direct = append(direct, t)
				}
			}
		}
	}
	return median(viaRouter) - median(direct), nil
}

// servePool is the serve workload's design pool: the corpus without the
// designs the batch workloads use or that run for many seconds.
// pairing_w2 is an encode design: its 1.5 s of bit-blasting alone was
// over half of the pool's encode time, which then matched its
// simulation time; without it simulation leads, as the workload means.
func servePool(all []string) []string {
	excluded := map[string]bool{"pairing_k1": true, "C3": true, "D9": true,
		"sha3_r1": true, "sha3_w2": true, "reed_b1": true, "pairing_w2": true}
	var pool []string
	for _, n := range all {
		if !excluded[n] {
			pool = append(pool, n)
		}
	}
	sort.Strings(pool)
	return pool
}
