package core

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"rtlrepair/internal/bench"
	"rtlrepair/internal/sim"
	"rtlrepair/internal/verilog"
)

// resultKey renders the fields of a repair result that must be
// byte-identical across worker counts.
func resultKey(res *Result) string {
	var b strings.Builder
	b.WriteString(res.Status.String())
	b.WriteString("|")
	b.WriteString(res.Template)
	if res.Repaired != nil {
		b.WriteString("|")
		b.WriteString(verilog.Print(res.Repaired))
	}
	for _, d := range res.ChangeDescs {
		b.WriteString("|")
		b.WriteString(d)
	}
	return b.String()
}

// The portfolio must pick the same repair no matter how many workers
// race: selection is a pure function of the per-attempt results.
func TestPortfolioDeterministicAcrossWorkerCounts(t *testing.T) {
	ins, outs := counterIO()
	tr := recordGolden(t, goodCounter, ins, outs, counterRows())
	m := buggyCounter

	var want string
	for _, workers := range []int{1, 2, 4, 8} {
		opts := repairOpts()
		opts.Workers = workers
		res := RepairCtx(context.Background(), mustParse(t, m), tr, opts)
		if res.Status != StatusRepaired {
			t.Fatalf("workers=%d: status = %v (%s)", workers, res.Status, res.Reason)
		}
		got := resultKey(res)
		if workers == 1 {
			want = got
			continue
		}
		if got != want {
			t.Errorf("workers=%d result differs from sequential:\n%s\nvs\n%s", workers, got, want)
		}
	}
}

// perTemplateKey renders the rows of Result.PerTemplate without their
// wall-clock fields (Duration, certification time), which are the only
// parts allowed to vary between runs.
func perTemplateKey(res *Result) string {
	var b strings.Builder
	for _, r := range res.PerTemplate {
		st := r.Stats
		st.Certify.CheckTime = 0
		fmt.Fprintf(&b, "%s localized=%v state=%s found=%v changes=%d sites=%d cancelled=%v err=%v stats=%+v\n",
			r.Template, r.Localized, r.State, r.Found, r.Changes, r.Sites, r.Cancelled, r.Err, st)
	}
	fmt.Fprintf(&b, "total sat=%+v abs=%+v\n", res.SAT, res.Abs)
	return b.String()
}

// The per-template report is a function of the sequential schedule, not
// of how many attempts the speculation throttle let run at once: the
// rows (and the aggregates built from them) must be identical at
// GOMAXPROCS 1, 2 and 4 with the default worker count.
func TestPerTemplateIndependentOfGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, name := range []string{"counter_k1", "counter_w2", "mux_w2"} {
		b := bench.ByName(name)
		tr, err := b.Trace()
		if err != nil {
			t.Fatal(err)
		}
		var want string
		for _, procs := range []int{1, 2, 4} {
			runtime.GOMAXPROCS(procs)
			m, err := b.BuggyModule()
			if err != nil {
				t.Fatal(err)
			}
			res := RepairCtx(context.Background(), m, tr,
				Options{Policy: sim.Randomize, Seed: 1, Timeout: 60 * time.Second})
			if res.Status != StatusRepaired {
				t.Fatalf("%s GOMAXPROCS=%d: status = %v (%s)", name, procs, res.Status, res.Reason)
			}
			got := perTemplateKey(res)
			if procs == 1 {
				want = got
				continue
			}
			if got != want {
				t.Errorf("%s: rows at GOMAXPROCS=%d differ from GOMAXPROCS=1:\n%s\nvs\n%s", name, procs, got, want)
			}
		}
	}
}

// Every worker goroutine must exit once runPortfolio returns, even when
// cancellation stops attempts mid-solve.
func TestPortfolioNoGoroutineLeak(t *testing.T) {
	ins, outs := counterIO()
	tr := recordGolden(t, goodCounter, ins, outs, counterRows())
	// Warm up any lazily started runtime goroutines before measuring.
	opts := repairOpts()
	opts.Workers = 4
	RepairCtx(context.Background(), mustParse(t, buggyCounter), tr, opts)

	before := runtime.NumGoroutine()
	for i := 0; i < 3; i++ {
		RepairCtx(context.Background(), mustParse(t, buggyCounter), tr, opts)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		after := runtime.NumGoroutine()
		if after <= before {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after", before, after)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// A pre-set interrupt flag must abort the synthesizer with ErrCancelled
// instead of completing or timing out — this is the mechanism sibling
// attempts use to stop each other.
func TestSynthesizerInterrupt(t *testing.T) {
	buggy := strings.Replace(goodCounter, "count + 1", "count + 2", 1)
	ins, outs := counterIO()
	s, _ := buildSynth(t, buggy, goodCounter, ReplaceLiterals{}, ins, outs, counterRows())
	var stop atomic.Bool
	stop.Store(true)
	s.opts.Interrupt = &stop
	if _, err := s.Basic(); err != ErrCancelled {
		t.Fatalf("interrupted Basic() = %v, want ErrCancelled", err)
	}
	if _, err := s.Windowed(1); err != ErrCancelled {
		t.Fatalf("interrupted Windowed() = %v, want ErrCancelled", err)
	}
}

// Cancelled attempts must report so: with one acceptable repair in the
// pruned pass, the unpruned pass never needs to run to completion.
func TestPortfolioRecordsAllAttempts(t *testing.T) {
	ins, outs := counterIO()
	tr := recordGolden(t, goodCounter, ins, outs, counterRows())
	opts := repairOpts()
	opts.Workers = 2
	res := RepairCtx(context.Background(), mustParse(t, buggyCounter), tr, opts)
	if res.Status != StatusRepaired {
		t.Fatalf("status = %v (%s)", res.Status, res.Reason)
	}
	// Every (pass, template) attempt appears exactly once, in order.
	wantAttempts := len(opts.Templates)
	if wantAttempts == 0 {
		wantAttempts = len(DefaultTemplates())
	}
	if res.Localization != nil {
		wantAttempts *= 2 // pruned pass + full pass
	}
	if len(res.PerTemplate) != wantAttempts {
		t.Fatalf("PerTemplate has %d entries, want %d", len(res.PerTemplate), wantAttempts)
	}
}

func TestWorkerCountKnob(t *testing.T) {
	if got := (&Options{Workers: 3}).workerCount(); got != 3 {
		t.Fatalf("workerCount(3) = %d", got)
	}
	if got := (&Options{}).workerCount(); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("workerCount(0) = %d, want GOMAXPROCS", got)
	}
}
