package serve

import (
	"encoding/json"
	"fmt"
	"strings"

	"rtlrepair/internal/core"
	"rtlrepair/internal/lint"
	"rtlrepair/internal/obs"
	"rtlrepair/internal/verilog"
)

// The queue/worker/cache layers of the server are seams, not
// hard-wired structures: a Config may replace any of them. The
// in-process defaults (bounded channel queue, LRU tiers) reproduce the
// single-node behaviour; internal/fleet composes the same server with
// a write-ahead-logged queue front and stores backed by a shared
// content-addressed filesystem, which is how one process becomes a
// cluster node. See DESIGN.md "Fleet".

// JobQueue buffers accepted-but-not-running jobs between admission
// (Submit) and the worker pool. Push is called under the server's
// admission lock; Jobs feeds the workers and must be closed exactly
// once by Close, after which Push must return false.
type JobQueue interface {
	// Push enqueues a job; false means the queue is at capacity and the
	// submission is rejected with ErrQueueFull.
	Push(j *Job) bool
	// Jobs is the worker feed. The channel is closed by Close.
	Jobs() <-chan *Job
	// Len and Cap report current depth and capacity.
	Len() int
	Cap() int
	// Close stops the queue: workers drain what remains and exit.
	Close()
}

// chanQueue is the default in-process JobQueue: a bounded channel.
type chanQueue struct{ ch chan *Job }

// NewChanQueue returns the default bounded-channel job queue.
func NewChanQueue(depth int) JobQueue {
	return &chanQueue{ch: make(chan *Job, depth)}
}

func (q *chanQueue) Push(j *Job) bool {
	select {
	case q.ch <- j:
		return true
	default:
		return false
	}
}

func (q *chanQueue) Jobs() <-chan *Job { return q.ch }
func (q *chanQueue) Len() int          { return len(q.ch) }
func (q *chanQueue) Cap() int          { return cap(q.ch) }
func (q *chanQueue) Close()            { close(q.ch) }

// ResultStore is the exact-request result tier: terminal RepairResults
// keyed by the SHA-256 result key. Implementations must be safe for
// concurrent use; stored results are immutable and shared by pointer.
type ResultStore interface {
	GetResult(key string) (*RepairResult, bool)
	PutResult(key string, rr *RepairResult)
}

// Artifact is one cached frontend: the parsed request plus its
// preprocess+elaborate result, shared read-only across jobs.
type Artifact struct {
	parsed *parsedRequest
	// FE is the frozen frontend artifact (never nil; a failed frontend
	// carries its CannotRepair reason).
	FE *core.Frontend
}

// ArtifactStore is the frontend-artifact tier: process-local Frontend
// values keyed by the SHA-256 artifact key.
type ArtifactStore interface {
	GetArtifact(key string) (*Artifact, bool)
	PutArtifact(key string, a *Artifact)
}

// BlobStore is a content-addressed byte store shared across processes
// (internal/fleet's filesystem CAS implements it). Keys are the same
// SHA-256 hex strings the in-memory tiers use; values are immutable
// once written.
type BlobStore interface {
	GetBlob(key string) ([]byte, bool)
	PutBlob(key string, blob []byte) error
}

// lruResults adapts the in-memory LRU to ResultStore.
type lruResults struct{ c *lruCache[*RepairResult] }

// NewLRUResultStore returns the default in-memory result tier
// (max <= 0 disables it).
func NewLRUResultStore(max int, metrics *obs.Registry) ResultStore {
	return &lruResults{c: newLRU[*RepairResult]("result", max, metrics)}
}

func (s *lruResults) GetResult(key string) (*RepairResult, bool) { return s.c.Get(key) }
func (s *lruResults) PutResult(key string, rr *RepairResult)     { s.c.Put(key, rr) }

// lruArtifacts adapts the in-memory LRU to ArtifactStore.
type lruArtifacts struct{ c *lruCache[*Artifact] }

// NewLRUArtifactStore returns the default in-memory artifact tier
// (max <= 0 disables it).
func NewLRUArtifactStore(max int, metrics *obs.Registry) ArtifactStore {
	return &lruArtifacts{c: newLRU[*Artifact]("artifact", max, metrics)}
}

func (s *lruArtifacts) GetArtifact(key string) (*Artifact, bool) { return s.c.Get(key) }
func (s *lruArtifacts) PutArtifact(key string, a *Artifact)      { s.c.Put(key, a) }

// sharedResults layers a cross-process blob store under the in-memory
// tier: gets read through to the CAS on a local miss (warming the LRU),
// puts write through, so every node in a fleet sees every node's
// results — and a restarted node comes back warm.
type sharedResults struct {
	mem     ResultStore
	blobs   BlobStore
	metrics *obs.Registry
}

// NewSharedResultStore composes the in-memory tier with a shared blob
// store. CAS write failures are counted (serve.cas.result.put_errors),
// not fatal: the in-memory tier still serves this process.
func NewSharedResultStore(mem ResultStore, blobs BlobStore, metrics *obs.Registry) ResultStore {
	return &sharedResults{mem: mem, blobs: blobs, metrics: metrics}
}

func (s *sharedResults) GetResult(key string) (*RepairResult, bool) {
	if rr, ok := s.mem.GetResult(key); ok {
		return rr, true
	}
	blob, ok := s.blobs.GetBlob(key)
	if !ok {
		return nil, false
	}
	var rr RepairResult
	if err := json.Unmarshal(blob, &rr); err != nil {
		s.metrics.Add("serve.cas.result.decode_errors", 1)
		return nil, false
	}
	s.metrics.Add("serve.cas.result.hits", 1)
	s.mem.PutResult(key, &rr)
	return &rr, true
}

func (s *sharedResults) PutResult(key string, rr *RepairResult) {
	s.mem.PutResult(key, rr)
	blob, err := json.Marshal(rr)
	if err == nil {
		err = s.blobs.PutBlob(key, blob)
	}
	if err != nil {
		s.metrics.Add("serve.cas.result.put_errors", 1)
	}
}

// artifactDoc is the serialized form of a frontend artifact in the
// shared blob store: the fix list and failure reason, carried verbatim
// because they are inputs to the repair verdict. The preprocessed
// module is not stored. A warm node rebuilds it from the requester's
// own parsed module, which has the artifact's content hash, so the
// rebuilt module keeps the design's source positions (a reparsed
// printout would not). The analysis report and elaboration are
// recomputed on rehydration — both are pure functions of the
// preprocessed module — so a warm frontend is equivalent to a cold one
// (pinned by TestSharedArtifactWarmEqualsCold).
type artifactDoc struct {
	Version int      `json:"version"`
	Reason  string   `json:"reason,omitempty"`
	Fixes   []docFix `json:"fixes,omitempty"`
}

type docFix struct {
	Kind   int    `json:"kind"`
	Line   int    `json:"line"`
	Col    int    `json:"col"`
	Signal string `json:"signal,omitempty"`
	Desc   string `json:"desc"`
}

// artifactDocVersion 2 dropped the printed module of version 1, so a
// node of either version rejects the other's docs instead of
// rehydrating without a module.
const artifactDocVersion = 2

// encodeArtifact renders the shareable half of an artifact. The
// elaborated system itself is a process-local term DAG and never
// crosses the wire.
func encodeArtifact(a *Artifact) ([]byte, error) {
	doc := artifactDoc{Version: artifactDocVersion, Reason: a.FE.Reason}
	for _, f := range a.FE.Fixes {
		doc.Fixes = append(doc.Fixes, docFix{
			Kind: int(f.Kind), Line: f.Pos.Line, Col: f.Pos.Col,
			Signal: f.Signal, Desc: f.Desc,
		})
	}
	return json.Marshal(doc)
}

// decodeArtifact rebuilds a frontend from a shared artifact doc plus
// the requester's own parsed request, which supplies the module, the
// library and the trace (preprocessing never rewrites library modules).
func decodeArtifact(blob []byte, parsed *parsedRequest) (*Artifact, error) {
	var doc artifactDoc
	if err := json.Unmarshal(blob, &doc); err != nil {
		return nil, err
	}
	if doc.Version != artifactDocVersion {
		return nil, fmt.Errorf("artifact doc version %d", doc.Version)
	}
	fixes := make([]lint.Fix, 0, len(doc.Fixes))
	for _, f := range doc.Fixes {
		fixes = append(fixes, lint.Fix{
			Kind: lint.FixKind(f.Kind), Pos: verilog.Pos{Line: f.Line, Col: f.Col},
			Signal: f.Signal, Desc: f.Desc,
		})
	}
	// Preprocessing that changed nothing leaves the module as parsed;
	// otherwise redo its rewrites on the requester's module. Its error
	// is already the doc's reason, and a failed frontend keeps the
	// partly fixed module, as on the cold path.
	fixed := parsed.top
	if !parsed.req.Options.NoPreprocess && (len(fixes) > 0 || doc.Reason != "") {
		fixed, _, _ = lint.Preprocess(parsed.top, parsed.lib)
	}
	fe := core.RehydrateFrontend(fixed, parsed.lib, fixes, doc.Reason)
	return &Artifact{parsed: parsed, FE: fe}, nil
}

// sharedArtifacts layers the blob store under the in-memory artifact
// tier. Because a Frontend is a process-local object graph, the CAS
// holds its serializable inputs (fixes, reason) and a warm get
// re-elaborates locally — skipping the lint transform when it changed
// nothing and, more importantly, surviving restarts and crossing nodes.
type sharedArtifacts struct {
	mem     ArtifactStore
	blobs   BlobStore
	metrics *obs.Registry
}

// NewSharedArtifactStore composes the in-memory artifact tier with a
// shared blob store.
func NewSharedArtifactStore(mem ArtifactStore, blobs BlobStore, metrics *obs.Registry) ArtifactStore {
	return &sharedArtifacts{mem: mem, blobs: blobs, metrics: metrics}
}

func (s *sharedArtifacts) GetArtifact(key string) (*Artifact, bool) {
	if a, ok := s.mem.GetArtifact(key); ok {
		return a, true
	}
	return nil, false
}

// getWarm is the CAS read path; it needs the requester's parsed request
// to rebind the library, so the server calls it from artifactFor rather
// than through the narrow ArtifactStore interface.
func (s *sharedArtifacts) getWarm(key string, parsed *parsedRequest) (*Artifact, bool) {
	blob, ok := s.blobs.GetBlob(key)
	if !ok {
		return nil, false
	}
	a, err := decodeArtifact(blob, parsed)
	if err != nil {
		s.metrics.Add("serve.cas.artifact.decode_errors", 1)
		return nil, false
	}
	s.metrics.Add("serve.cas.artifact.hits", 1)
	s.mem.PutArtifact(key, a)
	return a, true
}

func (s *sharedArtifacts) PutArtifact(key string, a *Artifact) {
	s.mem.PutArtifact(key, a)
	blob, err := encodeArtifact(a)
	if err == nil {
		err = s.blobs.PutBlob(key, blob)
	}
	if err != nil {
		s.metrics.Add("serve.cas.artifact.put_errors", 1)
	}
}

// ResultKey returns the content address of a full request: identical
// (source, trace, options) triples — and only those — share a key.
// Tenant and priority are routing metadata and deliberately excluded,
// so the same design submitted by two tenants shares cache entries.
// This is also the fleet shard key: internal/fleet's router rendezvous-
// hashes it across nodes.
func ResultKey(r *Request) string { return r.resultKey() }

// ArtifactKey returns the content address of a request's frontend
// artifact (trace-independent).
func ArtifactKey(r *Request) string { return r.artifactKey() }

// ValidPriority reports whether p names a known priority class.
func ValidPriority(p string) bool {
	switch strings.ToLower(p) {
	case "", PriorityInteractive, PriorityBatch:
		return true
	}
	return false
}

// Priority classes. Interactive (the default) is admitted until the
// queue is hard-full; batch is shed earlier (see fleet's admission
// controller), keeping latency headroom for interactive traffic.
const (
	PriorityInteractive = "interactive"
	PriorityBatch       = "batch"
)
