package fleet

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"rtlrepair/internal/bench"
	"rtlrepair/internal/eval"
	"rtlrepair/internal/obs"
	"rtlrepair/internal/serve"
)

func newTestNode(t *testing.T, cfg NodeConfig) *Node {
	t.Helper()
	if cfg.Serve.Slots == 0 {
		cfg.Serve.Slots = 2
	}
	if cfg.Serve.Obs.Metrics == nil {
		cfg.Serve.Obs.Metrics = obs.NewRegistry()
	}
	n, err := NewNode(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = n.Shutdown(ctx)
	})
	return n
}

func waitJob(t *testing.T, job *serve.Job) serve.JobView {
	t.Helper()
	select {
	case <-job.Done():
	case <-time.After(30 * time.Second):
		t.Fatalf("job %s did not finish", job.ID)
	}
	return job.View()
}

// waitWALQuiet blocks until every accepted job has its done record
// (the done-watcher goroutines run asynchronously).
func waitWALQuiet(t *testing.T, n *Node) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if n.wal.Stats().Pending == 0 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("WAL still pending: %+v", n.wal.Stats())
}

// stuckQueue accepts jobs but never delivers them to workers — it
// simulates the window where a node has acknowledged work it has not
// yet run, which is exactly what a crash must not lose.
type stuckQueue struct {
	mu   sync.Mutex
	held []*serve.Job
	ch   chan *serve.Job // never fed; closed on Close
}

func newStuckQueue() *stuckQueue { return &stuckQueue{ch: make(chan *serve.Job)} }

func (q *stuckQueue) Push(j *serve.Job) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.held = append(q.held, j)
	return true
}
func (q *stuckQueue) Jobs() <-chan *serve.Job { return q.ch }
func (q *stuckQueue) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.held)
}
func (q *stuckQueue) Cap() int { return 64 }
func (q *stuckQueue) Close()   { close(q.ch) }

// The headline crash-safety property: jobs acknowledged by a node that
// dies before running them are replayed on restart and produce the
// golden verdict. The "crash" node never runs its jobs at all (stuck
// queue), mimicking kill -9 at the worst moment. Run with -race.
func TestNodeCrashReplayProducesGoldenVerdict(t *testing.T) {
	dir := t.TempDir()
	walPath := filepath.Join(dir, "node.wal")
	casDir := filepath.Join(dir, "cas")

	crash := newTestNode(t, NodeConfig{
		Name:    "n1",
		WALPath: walPath, ArtifactDir: casDir,
		Serve: serve.Config{Slots: 1, Queue: newStuckQueue()},
	})
	// Concurrent submissions exercise the WAL's group commit under -race.
	const jobs = 3
	var wg sync.WaitGroup
	for i := 0; i < jobs; i++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			if _, err := crash.Submit(testRequest(seed)); err != nil {
				t.Error(err)
			}
		}(int64(i + 1))
	}
	wg.Wait()
	// kill -9: the server goes away without completing anything. (The
	// WAL is closed so the restarted node can own the file; its pending
	// records are already durable — Accept returned.)
	if err := crash.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	restarted := newTestNode(t, NodeConfig{
		Name:    "n1",
		WALPath: walPath, ArtifactDir: casDir,
	})
	if restarted.wal.Stats().Recovered != jobs {
		t.Fatalf("recovered %d, want %d", restarted.wal.Stats().Recovered, jobs)
	}
	// Replay re-admits and runs every lost job to completion.
	deadline := time.Now().Add(60 * time.Second)
	for restarted.metrics.Counter("serve.jobs.completed") < jobs {
		if time.Now().After(deadline) {
			t.Fatalf("replay incomplete: %d/%d jobs", restarted.metrics.Counter("serve.jobs.completed"), jobs)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if got := restarted.metrics.Counter("fleet.wal.replayed"); got != jobs {
		t.Fatalf("fleet.wal.replayed = %d, want %d", got, jobs)
	}
	if !restarted.Server().Snapshot().Ready {
		t.Fatal("node not ready after replay")
	}
	// The replayed repairs are the golden verdict: resubmitting hits the
	// result cache with status "repaired".
	for i := 0; i < jobs; i++ {
		job, err := restarted.Submit(testRequest(int64(i + 1)))
		if err != nil {
			t.Fatal(err)
		}
		v := waitJob(t, job)
		if !v.Cached || v.Result == nil || v.Result.Status != "repaired" {
			t.Fatalf("job %d: cached=%t result=%+v, want cached repaired", i, v.Cached, v.Result)
		}
	}
	waitWALQuiet(t, restarted)
	// A third incarnation finds a clean log: nothing pending.
	if err := restarted.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	_, pending, err := OpenWAL(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(pending) != 0 {
		t.Fatalf("%d jobs still pending after clean run", len(pending))
	}
}

// A rejected submission (validation failure) must not leave an orphan
// accept record that replays forever.
func TestNodeRejectedSubmitLeavesNoOrphan(t *testing.T) {
	walPath := filepath.Join(t.TempDir(), "node.wal")
	n := newTestNode(t, NodeConfig{Name: "n1", WALPath: walPath})
	if _, err := n.Submit(&serve.Request{Source: "module;", Trace: counterTraceCSV}); !serve.IsBadRequest(err) {
		t.Fatalf("err = %v, want bad request", err)
	}
	if st := n.wal.Stats(); st.Pending != 0 {
		t.Fatalf("orphan accept: %+v", st)
	}
}

// Two nodes sharing an artifact directory: the second node answers a
// request it has never seen from the first node's published result,
// and a new trace over a known design reuses the shared frontend
// artifact instead of re-elaborating.
func TestNodeSharedStoreWarmsPeer(t *testing.T) {
	casDir := filepath.Join(t.TempDir(), "cas")
	a := newTestNode(t, NodeConfig{Name: "a", ArtifactDir: casDir})
	job, err := a.Submit(testRequest(7))
	if err != nil {
		t.Fatal(err)
	}
	if v := waitJob(t, job); v.Result == nil || v.Result.Status != "repaired" {
		t.Fatalf("node a result = %+v", v.Result)
	}

	b := newTestNode(t, NodeConfig{Name: "b", ArtifactDir: casDir})
	job, err = b.Submit(testRequest(7))
	if err != nil {
		t.Fatal(err)
	}
	v := waitJob(t, job)
	if !v.Cached || v.Result == nil || v.Result.Status != "repaired" {
		t.Fatalf("peer not warmed: cached=%t result=%+v", v.Cached, v.Result)
	}
	if hits := b.metrics.Counter("serve.cas.result.hits"); hits == 0 {
		t.Fatal("result came from somewhere other than the shared store")
	}

	// New trace, same design: result key differs (must re-repair) but
	// the frontend artifact crosses nodes.
	job, err = b.Submit(&serve.Request{Source: buggyCounterSrc, Trace: counterTraceShortCSV,
		Options: serve.ReqOptions{Seed: 7}})
	if err != nil {
		t.Fatal(err)
	}
	v = waitJob(t, job)
	if v.Cached || v.Result == nil || v.Result.Status != "repaired" {
		t.Fatalf("new-trace job: cached=%t result=%+v, want fresh repaired", v.Cached, v.Result)
	}
	if hits := b.metrics.Counter("serve.cas.artifact.hits"); hits == 0 {
		t.Fatal("frontend artifact was rebuilt instead of warmed from the shared store")
	}
}

// A frontend built on one node and read from the shared store by
// another must keep the design's own source positions: the peer's
// change descriptions match the batch goldens line for line.
func TestNodeSharedArtifactKeepsSourcePositions(t *testing.T) {
	casDir := filepath.Join(t.TempDir(), "cas")
	a := newTestNode(t, NodeConfig{Name: "a", ArtifactDir: casDir})
	b := newTestNode(t, NodeConfig{Name: "b", ArtifactDir: casDir})
	for _, name := range []string{"decoder_w1", "flop_w1"} {
		bm := bench.ByName(name)
		if len(bm.Lib) != 0 {
			t.Fatalf("%s: library modules would shift the golden line numbers", name)
		}
		tr, err := bm.Trace()
		if err != nil {
			t.Fatal(err)
		}
		var csv bytes.Buffer
		if err := tr.WriteCSV(&csv); err != nil {
			t.Fatal(err)
		}
		req := &serve.Request{Source: bm.Buggy, Trace: csv.String(),
			Options: serve.ReqOptions{Seed: eval.ChooseSeed(bm, 1)}}

		// Node a builds the frontend and publishes it. Its seed differs,
		// so node b cannot take the result from the shared store and
		// must repair with the artifact node a built.
		other := *req
		other.Options.Seed++
		job, err := a.Submit(&other)
		if err != nil {
			t.Fatal(err)
		}
		waitJob(t, job)
		hits := b.metrics.Counter("serve.cas.artifact.hits")
		job, err = b.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		v := waitJob(t, job)
		if b.metrics.Counter("serve.cas.artifact.hits") != hits+1 {
			t.Fatalf("%s: node b did not take the frontend from the shared store", name)
		}
		if v.Cached || v.Result == nil {
			t.Fatalf("%s: cached=%t result=%+v, want a fresh repair", name, v.Cached, v.Result)
		}
		golden, err := os.ReadFile(filepath.Join("..", "..", "testdata", "repair_goldens", name+".golden"))
		if err != nil {
			t.Fatal(err)
		}
		head, _, _ := strings.Cut(string(golden), "----\n")
		var got strings.Builder
		fmt.Fprintf(&got, "status: %s\ntemplate: %s\nchanges: %d\n", v.Result.Status, v.Result.Template, v.Result.Changes)
		for _, d := range v.Result.ChangeDescs {
			fmt.Fprintf(&got, "change: %s\n", d)
		}
		if got.String() != head {
			t.Errorf("%s: verdict from the shared artifact:\n%s\nwant (golden):\n%s", name, got.String(), head)
		}
	}
}
