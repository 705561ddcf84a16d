package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"rtlrepair/internal/core"
	"rtlrepair/internal/fleet"
	"rtlrepair/internal/lint"
	"rtlrepair/internal/serve"
	"rtlrepair/internal/trace"
	"rtlrepair/internal/verilog"
)

// timeOutside times the serving layers the engine's spans do not cover
// by calling their public functions on the run's own requests: the read
// path of every request, the write path of every fresh one, and the
// frontend of every pool design.
func timeOutside(cfg config, m metrics, reqs []*request, seen []served, designs []*design) error {
	if err := timeReadPath(m, reqs); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(cfg.scratch, "layers-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	if err := timeWritePath(m, dir, reqs, seen); err != nil {
		return err
	}
	// Frontends are built once per design, in the warm pass: time the
	// public constructor, and the preprocessing it starts with, over the
	// pool.
	for _, d := range designs {
		t0 := time.Now()
		if _, _, _, err := lint.PreprocessWithReport(d.top, d.lib); err != nil {
			return fmt.Errorf("%s: preprocess: %w", d.name, err)
		}
		t1 := time.Now()
		core.NewFrontend(d.top, d.lib, false)
		m["lint.preprocess_ms"] += ms(t1.Sub(t0))
		m["core.frontend_ms"] += ms(time.Since(t1))
	}
	return nil
}

// timeReadPath is the per-request work before the cache lookup: JSON
// decode, Verilog and trace parse, cache keys and the shard ranking.
func timeReadPath(m metrics, reqs []*request) error {
	var decode, parse, hash, rank time.Duration
	names := []string{"n1", "n2"}
	for _, r := range reqs {
		t0 := time.Now()
		var req serve.Request
		if err := json.Unmarshal(r.body, &req); err != nil {
			return err
		}
		t1 := time.Now()
		if _, err := verilog.Parse(req.Source); err != nil {
			return err
		}
		if _, err := trace.ReadCSV(strings.NewReader(req.Trace)); err != nil {
			return err
		}
		t2 := time.Now()
		key := serve.ResultKey(&req)
		serve.ArtifactKey(&req)
		t3 := time.Now()
		fleet.RankNodes(names, key)
		t4 := time.Now()
		decode += t1.Sub(t0)
		parse += t2.Sub(t1)
		hash += t3.Sub(t2)
		rank += t4.Sub(t3)
	}
	n := float64(len(reqs))
	m["serve.decode_ms"] = ms(decode) / n
	m["serve.parse_ms"] = ms(parse) / n
	m["serve.key_hash_us"] = float64(hash.Microseconds()) / n
	m["fleet.rank_us"] = float64(rank.Microseconds()) / n
	return nil
}

// timeWritePath replays the write path of every answered fresh request
// in dir: a WAL accept/done pair on a scratch log, and its result blob
// published to and read back from a scratch store.
func timeWritePath(m metrics, dir string, reqs []*request, seen []served) (err error) {
	wal, _, err := fleet.OpenWAL(filepath.Join(dir, "scratch.wal"))
	if err != nil {
		return err
	}
	defer func() {
		if cerr := wal.Close(); err == nil {
			err = cerr
		}
	}()
	cas, err := fleet.OpenCAS(filepath.Join(dir, "cas"))
	if err != nil {
		return err
	}
	var accept, put, get time.Duration
	writes := 0
	for i, r := range reqs {
		if r.Kind != fresh || seen[i].result == nil {
			continue
		}
		key := serve.ResultKey(r.req)
		blob, err := json.Marshal(seen[i].result)
		if err != nil {
			return err
		}
		t0 := time.Now()
		if err := wal.Accept(key, r.req); err != nil {
			return err
		}
		t1 := time.Now()
		if err := wal.Done(key); err != nil {
			return err
		}
		t2 := time.Now()
		if err := cas.PutBlob(key, blob); err != nil {
			return err
		}
		t3 := time.Now()
		if _, ok := cas.GetBlob(key); !ok {
			return fmt.Errorf("scratch store lost blob %s", key)
		}
		accept += t1.Sub(t0)
		put += t3.Sub(t2)
		get += time.Since(t3)
		writes++
	}
	w := float64(max(writes, 1))
	m["fleet.wal_accept_ms"] = ms(accept) / w
	m["fleet.cas_put_ms"] = ms(put) / w
	m["fleet.cas_get_ms"] = ms(get) / w
	return nil
}
