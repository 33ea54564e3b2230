package workpool

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// within fails the test if fn does not return in time: the deadlock guard
// for the nested and panic cases, where a bug shows as a hang.
func within(t *testing.T, d time.Duration, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn()
	}()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatalf("no result after %v: deadlock", d)
	}
}

// TestForVisitsEveryIndexOnce checks the coverage contract around the
// chunk boundaries, at pool sizes on both sides of the inline path.
func TestForVisitsEveryIndexOnce(t *testing.T) {
	const chunk = 8
	for _, workers := range []int{1, 2, 8} {
		p := New(workers)
		for _, n := range []int{0, 1, chunk - 1, chunk, 10000} {
			visits := make([]atomic.Int32, n)
			p.For(n, chunk, func(lo, hi int) {
				if lo < 0 || hi > n || lo >= hi || hi-lo > chunk {
					t.Errorf("workers=%d n=%d: bad chunk [%d,%d)", workers, n, lo, hi)
					return
				}
				for i := lo; i < hi; i++ {
					visits[i].Add(1)
				}
			})
			for i := range visits {
				if v := visits[i].Load(); v != 1 {
					t.Fatalf("workers=%d n=%d: index %d visited %d times", workers, n, i, v)
				}
			}
		}
		p.Close()
	}
}

// TestNestedForCompletes runs a For inside every item of a For — the shape
// of a site task calling an engine phase — on pools smaller than, equal to
// and larger than the outer loop.
func TestNestedForCompletes(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		p := New(workers)
		var sum atomic.Int64
		within(t, 30*time.Second, func() {
			p.For(4, 1, func(lo, _ int) {
				p.For(1000, 8, func(lo2, hi2 int) {
					for i := lo2; i < hi2; i++ {
						sum.Add(int64(lo + 1))
					}
				})
			})
		})
		if got, want := sum.Load(), int64(1000*(1+2+3+4)); got != want {
			t.Errorf("workers=%d: nested sum = %d, want %d", workers, got, want)
		}
		p.Close()
	}
}

// TestConcurrentCallers drives one pool from several goroutines at once:
// every loop must still see each of its indices exactly once.
func TestConcurrentCallers(t *testing.T) {
	p := New(4)
	defer p.Close()
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 50; rep++ {
				var visited atomic.Int64
				p.For(257, 4, func(lo, hi int) { visited.Add(int64(hi - lo)) })
				if v := visited.Load(); v != 257 {
					t.Errorf("visited %d of 257", v)
				}
			}
		}()
	}
	within(t, 30*time.Second, wg.Wait)
}

// TestHelperPanicResurfaces pins the failure path: a panic on a helper
// stops the loop, resurfaces in the caller with the original value and the
// helper's stack, and leaves the pool fully usable.
func TestHelperPanicResurfaces(t *testing.T) {
	p := New(4)
	defer p.Close()
	within(t, 30*time.Second, func() {
		defer func() {
			pe, ok := recover().(*PanicError)
			if !ok || pe.Value != "boom" || len(pe.Stack) == 0 {
				t.Errorf("recovered %v, want *PanicError carrying \"boom\" and a stack", pe)
			}
		}()
		// The caller owns chunk 0 and holds it until a helper has panicked,
		// so the panic is guaranteed to happen off the calling goroutine.
		panicked := make(chan struct{})
		var once sync.Once
		p.For(64, 1, func(lo, _ int) {
			if lo == 0 {
				<-panicked
				return
			}
			once.Do(func() {
				defer close(panicked)
				panic("boom")
			})
		})
		t.Error("For returned normally after a helper panicked")
	})
	var n atomic.Int64
	within(t, 30*time.Second, func() {
		p.For(1000, 8, func(lo, hi int) { n.Add(int64(hi - lo)) })
	})
	if n.Load() != 1000 {
		t.Errorf("after the panic the pool visited %d of 1000", n.Load())
	}
}

// TestCallerPanicPropagates: a panic on the calling goroutine keeps its own
// value, and For does not return before the helpers' running chunks have.
func TestCallerPanicPropagates(t *testing.T) {
	p := New(3)
	defer p.Close()
	var inFlight atomic.Int32
	within(t, 30*time.Second, func() {
		defer func() {
			if r := recover(); r != "caller" {
				t.Errorf("recovered %v, want \"caller\"", r)
			}
			if v := inFlight.Load(); v != 0 {
				t.Errorf("%d helper chunks still running after For unwound", v)
			}
		}()
		p.For(64, 1, func(lo, _ int) {
			if lo == 0 {
				panic("caller")
			}
			inFlight.Add(1)
			time.Sleep(time.Millisecond)
			inFlight.Add(-1)
		})
	})
}

// TestCloseJoinsWorkers asserts Close leaves no goroutine behind, and that
// a closed pool still runs loops on the caller.
func TestCloseJoinsWorkers(t *testing.T) {
	before := runtime.NumGoroutine()
	p := New(8)
	p.For(1000, 4, func(lo, hi int) {})
	if got := runtime.NumGoroutine(); got < before+7 {
		t.Errorf("%d goroutines with the pool open, want at least %d", got, before+7)
	}
	p.Close()
	p.Close() // idempotent
	// Close returns once every helper has passed its last statement; give
	// the runtime a moment to take the exited goroutines off its count.
	got := runtime.NumGoroutine()
	for i := 0; i < 100 && got != before; i++ {
		time.Sleep(time.Millisecond)
		got = runtime.NumGoroutine()
	}
	if got != before {
		t.Errorf("%d goroutines after Close, want %d", got, before)
	}
	n := 0
	p.For(100, 8, func(lo, hi int) { n += hi - lo }) // unsynchronised: caller only
	if n != 100 {
		t.Errorf("closed pool visited %d of 100", n)
	}
}

// TestStats checks the counters' meaning: Calls counts loops, helped chunks
// and busy time appear only when a helper actually took part.
func TestStats(t *testing.T) {
	p := New(1)
	p.For(100, 8, func(lo, hi int) {})
	if st := p.Stats(); st != (Stats{Workers: 1, Calls: 1}) {
		t.Errorf("pool of 1: %+v", st)
	}
	p.Close()

	p = New(2)
	defer p.Close()
	// Chunk 0 (the caller's) does not finish until chunk 1 has run, which
	// only the helper can do.
	helped := make(chan struct{})
	within(t, 30*time.Second, func() {
		p.For(2, 1, func(lo, _ int) {
			if lo == 0 {
				<-helped
			} else {
				time.Sleep(time.Millisecond)
				close(helped)
			}
		})
	})
	// The helper adds its busy time after leaving the loop; Close joins it.
	p.Close()
	st := p.Stats()
	if st.Workers != 2 || st.Calls != 1 || st.HelpedChunks != 1 || st.BusyNS < int64(time.Millisecond) {
		t.Errorf("pool of 2: %+v", st)
	}
}
