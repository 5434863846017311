package sim

import (
	"fmt"
	"math"
	"strings"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(42)
	b := NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at draw %d", i)
		}
	}
}

func TestRNGSeedSensitivity(t *testing.T) {
	a := NewRNG(1)
	b := NewRNG(2)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("adjacent seeds produced %d identical draws out of 1000", same)
	}
}

func TestRNGIntnBounds(t *testing.T) {
	r := NewRNG(7)
	for _, n := range []int{1, 2, 3, 7, 10, 100, 1 << 20} {
		for i := 0; i < 200; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestRNGIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestRNGIntnUniformity(t *testing.T) {
	r := NewRNG(99)
	const n, draws = 8, 80000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.Intn(n)]++
	}
	want := float64(draws) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("bucket %d: got %d, want approximately %.0f", i, c, want)
		}
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(3)
	sum := 0.0
	const draws = 100000
	for i := 0; i < draws; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
		sum += f
	}
	mean := sum / draws
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("Float64 mean %.4f too far from 0.5", mean)
	}
}

func TestRNGBernoulliExtremes(t *testing.T) {
	r := NewRNG(11)
	for i := 0; i < 100; i++ {
		if r.Bernoulli(0) {
			t.Fatal("Bernoulli(0) returned true")
		}
		if !r.Bernoulli(1.0) {
			t.Fatal("Bernoulli(1) returned false")
		}
	}
}

func TestRNGForkIndependence(t *testing.T) {
	parent := NewRNG(5)
	child := parent.Fork()
	// Parent's subsequent stream must be reproducible: a twin parent that
	// forks identically continues identically.
	twin := NewRNG(5)
	twinChild := twin.Fork()
	for i := 0; i < 100; i++ {
		if parent.Uint64() != twin.Uint64() {
			t.Fatal("parent stream not reproducible after fork")
		}
		if child.Uint64() != twinChild.Uint64() {
			t.Fatal("forked child stream not reproducible")
		}
	}
}

func TestRNGIntnUnbiasedProperty(t *testing.T) {
	// Property: for any seed and bound, Intn stays within [0, n).
	f := func(seed uint64, n16 uint16) bool {
		n := int(n16%1000) + 1
		r := NewRNG(seed)
		for i := 0; i < 50; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMul64(t *testing.T) {
	cases := []struct {
		a, b, hi, lo uint64
	}{
		{0, 0, 0, 0},
		{1, 1, 0, 1},
		{math.MaxUint64, 2, 1, math.MaxUint64 - 1},
		{math.MaxUint64, math.MaxUint64, math.MaxUint64 - 1, 1},
		{1 << 32, 1 << 32, 1, 0},
	}
	for _, c := range cases {
		hi, lo := mul64(c.a, c.b)
		if hi != c.hi || lo != c.lo {
			t.Errorf("mul64(%d,%d) = (%d,%d), want (%d,%d)", c.a, c.b, hi, lo, c.hi, c.lo)
		}
	}
}

func TestClock(t *testing.T) {
	var c Clock
	if c.Now() != 0 {
		t.Fatalf("fresh clock at %d", c.Now())
	}
	for i := 1; i <= 10; i++ {
		c.Advance()
		if c.Now() != Cycle(i) {
			t.Fatalf("after %d advances clock reads %d", i, c.Now())
		}
	}
	c.Reset()
	if c.Now() != 0 {
		t.Fatal("reset did not rewind clock")
	}
}

// countingTicker records the order and phases of its invocations.
type countingTicker struct {
	computes, transfers int64
	lastCycle           Cycle
}

func (ct *countingTicker) Tick(now Cycle, phase Phase) {
	switch phase {
	case PhaseCompute:
		atomic.AddInt64(&ct.computes, 1)
	case PhaseTransfer:
		atomic.AddInt64(&ct.transfers, 1)
	}
	ct.lastCycle = now
}

func TestExecutorSerial(t *testing.T) {
	clock := &Clock{}
	ts := make([]Ticker, 5)
	cts := make([]*countingTicker, 5)
	for i := range ts {
		cts[i] = &countingTicker{}
		ts[i] = cts[i]
	}
	e := newTestExecutor(clock, ts, 1)
	defer e.Close()
	e.Run(10)
	if clock.Now() != 10 {
		t.Fatalf("clock at %d after 10 cycles", clock.Now())
	}
	for i, ct := range cts {
		if ct.computes != 10 || ct.transfers != 10 {
			t.Errorf("ticker %d: computes=%d transfers=%d, want 10/10", i, ct.computes, ct.transfers)
		}
	}
}

func TestExecutorParallelMatchesSerial(t *testing.T) {
	run := func(workers int) []int64 {
		clock := &Clock{}
		ts := make([]Ticker, 37)
		cts := make([]*countingTicker, len(ts))
		for i := range ts {
			cts[i] = &countingTicker{}
			ts[i] = cts[i]
		}
		e := newTestExecutor(clock, ts, workers)
		defer e.Close()
		e.Run(25)
		out := make([]int64, len(ts))
		for i, ct := range cts {
			out[i] = ct.computes*1000 + ct.transfers
		}
		return out
	}
	serial := run(1)
	parallel := run(4)
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Fatalf("ticker %d differs: serial=%d parallel=%d", i, serial[i], parallel[i])
		}
	}
}

// panicTicker panics during the compute phase of a chosen cycle.
type panicTicker struct{ at Cycle }

func (p *panicTicker) Tick(now Cycle, phase Phase) {
	if now == p.at && phase == PhaseCompute {
		panic("boom")
	}
}

// TestExecutorPanicReachesCaller checks panic containment: a Ticker
// panic on a pooled worker goroutine must not kill the process (which
// would bypass any recover installed by the caller, e.g. a campaign
// job) but re-raise from Step on the caller's goroutine.
func TestExecutorPanicReachesCaller(t *testing.T) {
	for _, workers := range []int{1, 4} {
		clock := &Clock{}
		ts := []Ticker{&countingTicker{}, &panicTicker{at: 3}, &countingTicker{}, &countingTicker{}}
		e := newTestExecutor(clock, ts, workers)
		func() {
			defer e.Close()
			defer func() {
				p := recover()
				if p == nil {
					t.Fatalf("workers=%d: Ticker panic did not reach the caller", workers)
				}
				if s := fmt.Sprint(p); !strings.Contains(s, "boom") {
					t.Errorf("workers=%d: panic %q does not carry the original value", workers, s)
				}
			}()
			e.Run(10)
		}()
		if clock.Now() != 3 {
			t.Errorf("workers=%d: clock at %d, want the panicking cycle 3", workers, clock.Now())
		}
	}
}

func TestExecutorRunUntil(t *testing.T) {
	clock := &Clock{}
	ct := &countingTicker{}
	e := newTestExecutor(clock, []Ticker{ct}, 1)
	defer e.Close()
	n, ok := e.RunUntil(func() bool { return ct.computes >= 7 }, 100)
	if !ok || n != 7 {
		t.Fatalf("RunUntil returned (%d,%v), want (7,true)", n, ok)
	}
	n, ok = e.RunUntil(func() bool { return false }, 5)
	if ok || n != 5 {
		t.Fatalf("RunUntil limit returned (%d,%v), want (5,false)", n, ok)
	}
}

// TestExecutorRunUntilAlreadyDone pins the contract that a condition
// already satisfied at entry returns (0, true) without running a cycle:
// RunUntil("drain") on an already-drained network must not advance time.
func TestExecutorRunUntilAlreadyDone(t *testing.T) {
	clock := &Clock{}
	ct := &countingTicker{}
	e := newTestExecutor(clock, []Ticker{ct}, 1)
	defer e.Close()
	n, ok := e.RunUntil(func() bool { return true }, 100)
	if !ok || n != 0 {
		t.Fatalf("RunUntil on satisfied condition returned (%d,%v), want (0,true)", n, ok)
	}
	if clock.Now() != 0 || ct.computes != 0 {
		t.Fatalf("RunUntil ran a cycle anyway: clock=%d computes=%d", clock.Now(), ct.computes)
	}
}

// TestExecutorHonorsWorkerCount checks that the requested parallelism is
// used as given (clamped only to [1, len(tickers)]), not silently capped
// at runtime.NumCPU(): determinism regressions that only reproduce at
// high worker counts must be reproducible on small CI machines.
func TestExecutorHonorsWorkerCount(t *testing.T) {
	clock := &Clock{}
	ts := make([]Ticker, 64)
	for i := range ts {
		ts[i] = &countingTicker{}
	}
	e := newTestExecutor(clock, ts, 48) // far above any CI runner's NumCPU
	defer e.Close()
	if got := e.Workers(); got != 48 {
		t.Fatalf("Workers() = %d, want the requested 48", got)
	}
	e.Run(5)
	for i, tk := range ts {
		if c := tk.(*countingTicker).computes; c != 5 {
			t.Fatalf("ticker %d ran %d computes, want 5", i, c)
		}
	}

	// Out-of-range requests clamp to something sane rather than panic.
	e2 := newTestExecutor(&Clock{}, []Ticker{&countingTicker{}}, 0)
	defer e2.Close()
	if got := e2.Workers(); got != 1 {
		t.Fatalf("Workers() for request 0 = %d, want 1", got)
	}
	e3 := newTestExecutor(&Clock{}, []Ticker{&countingTicker{}, &countingTicker{}}, 99)
	defer e3.Close()
	if got := e3.Workers(); got != 2 {
		t.Fatalf("Workers() above len(tickers) = %d, want 2", got)
	}
}

func TestExecutorEmptyTickers(t *testing.T) {
	clock := &Clock{}
	e := newTestExecutor(clock, nil, 8)
	defer e.Close()
	e.Run(3)
	if clock.Now() != 3 {
		t.Fatalf("clock at %d, want 3", clock.Now())
	}
}

func BenchmarkRNGUint64(b *testing.B) {
	r := NewRNG(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += r.Uint64()
	}
	_ = sink
}

func BenchmarkRNGIntn(b *testing.B) {
	r := NewRNG(1)
	var sink int
	for i := 0; i < b.N; i++ {
		sink += r.Intn(36)
	}
	_ = sink
}

func BenchmarkExecutorSerial(b *testing.B) {
	clock := &Clock{}
	ts := make([]Ticker, 256)
	for i := range ts {
		ts[i] = &countingTicker{}
	}
	e := newTestExecutor(clock, ts, 1)
	defer e.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}

func BenchmarkExecutorParallel(b *testing.B) {
	clock := &Clock{}
	ts := make([]Ticker, 256)
	for i := range ts {
		ts[i] = &countingTicker{}
	}
	e := newTestExecutor(clock, ts, 4)
	defer e.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}
