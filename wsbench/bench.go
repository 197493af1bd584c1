package main

import (
	"fmt"
	"maps"
	"math"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// opState is one generated op. Op indices are global to a run; a
// completion looks its op up by the index carried in the reply.
type opState struct {
	due  int64 // ns since the run epoch: the wake that released it
	seg  *segment
	conn int32 // sending connection (closed-loop slot owner)
	box  int32 // mailbox the reply parks in (mailbox-durable)
	// done: 0 outstanding, 1 completed or failed, 2 declared missing.
	done atomic.Int32
}

// maxWindow bounds the closed loop's in-flight window per connection.
const maxWindow = 1024

const (
	chunkBits = 14
	chunkLen  = 1 << chunkBits
	maxChunks = 1 << 12
)

// opTable is an append-only chunked array of ops: allocation is one
// atomic add, lookup is two loads, and nothing is ever moved.
type opTable struct {
	next   atomic.Int64
	mu     sync.Mutex // serializes chunk allocation
	chunks [maxChunks]atomic.Pointer[[chunkLen]opState]
}

// alloc reserves n consecutive op indices.
func (t *opTable) alloc(n int) (int64, error) {
	first := t.next.Add(int64(n)) - int64(n)
	last := first + int64(n) - 1
	if last>>chunkBits >= maxChunks {
		return 0, fmt.Errorf("op table full at %d ops", last)
	}
	for c := first >> chunkBits; c <= last>>chunkBits; c++ {
		if t.chunks[c].Load() == nil {
			t.mu.Lock()
			if t.chunks[c].Load() == nil {
				t.chunks[c].Store(new([chunkLen]opState))
			}
			t.mu.Unlock()
		}
	}
	return first, nil
}

// get returns op i, or nil when i was never allocated.
func (t *opTable) get(i int64) *opState {
	if i < 0 || i >= t.next.Load() {
		return nil
	}
	c := t.chunks[i>>chunkBits].Load()
	if c == nil {
		return nil
	}
	return &c[i&(chunkLen-1)]
}

// sample is one verified completion: when it completed and how long it
// took from its due time, both in ns.
type sample struct{ at, lat int64 }

// segment is one measured phase of a run.
type segment struct {
	name   string
	open   bool    // fixed-rate open loop; else closed loop
	rate   float64 // ops/s offered (open loop)
	dur    time.Duration
	keep   bool // samples feed the reported metrics
	notify chan int64

	start, end int64 // ns since the run epoch

	offered   atomic.Int64
	delivered atomic.Int64

	mu      sync.Mutex
	samples []sample
	lags    []int64 // generator wake lateness, ns

	cpu time.Duration // process user+sys CPU during the segment
}

func (s *segment) add(x sample) {
	s.mu.Lock()
	s.samples = append(s.samples, x)
	s.mu.Unlock()
}

// bench holds one run's ops, failure accounting and clocks.
type bench struct {
	epoch     time.Time
	ops       opTable
	attempted atomic.Int64
	failed    atomic.Int64
	inflight  atomic.Int64

	failMu  sync.Mutex
	reasons map[string]int64

	// slots are the closed loop's per-connection in-flight windows.
	slots []chan struct{}
	// boxOf assigns an op's reply mailbox and boxOut counts
	// outstanding ops per mailbox (mailbox-durable only).
	boxOf  func(i int64) int32
	boxOut []atomic.Int32
}

// newBench makes an empty run with conns closed-loop windows; the
// windows stay empty until closedLoop fills them.
func newBench(conns int) *bench {
	b := &bench{epoch: time.Now(), reasons: map[string]int64{}}
	b.slots = make([]chan struct{}, conns)
	for c := range b.slots {
		b.slots[c] = make(chan struct{}, maxWindow)
	}
	return b
}

func (b *bench) now() int64 { return int64(time.Since(b.epoch)) }

func (b *bench) at(t time.Time) int64 { return int64(t.Sub(b.epoch)) }

func (b *bench) fail(reason string) {
	b.failed.Add(1)
	b.failMu.Lock()
	b.reasons[reason]++
	b.failMu.Unlock()
}

// failures returns a copy of the failure counts by reason.
func (b *bench) failures() map[string]int64 {
	b.failMu.Lock()
	defer b.failMu.Unlock()
	return maps.Clone(b.reasons)
}

// issue allocates n ops for seg, all due at due, and records them as
// attempted and in flight.
func (b *bench) issue(seg *segment, n int, due int64, conn int32) (int64, error) {
	first, err := b.ops.alloc(n)
	if err != nil {
		return 0, err
	}
	for i := first; i < first+int64(n); i++ {
		st := b.ops.get(i)
		st.due, st.seg, st.conn = due, seg, conn
		if b.boxOf != nil {
			st.box = b.boxOf(i)
			b.boxOut[st.box].Add(1)
		}
	}
	seg.offered.Add(int64(n))
	b.attempted.Add(int64(n))
	b.inflight.Add(int64(n))
	return first, nil
}

// complete settles op i at time at. ok=false records a failure with the
// given reason. A second settlement of the same op is a duplicate.
func (b *bench) complete(i int64, at int64, ok bool, reason string) {
	st := b.ops.get(i)
	if st == nil {
		b.fail("unknown op")
		return
	}
	if !st.done.CompareAndSwap(0, 1) {
		if st.done.Load() == 2 {
			b.fail("late after drain timeout")
		} else {
			b.fail("duplicate")
		}
		return
	}
	// Record before settling: drain's view of the in-flight count is
	// what orders these writes before the segment's figures are read.
	seg := st.seg
	if !ok {
		b.fail(reason)
	} else {
		seg.delivered.Add(1)
		if seg.keep {
			seg.add(sample{at: at, lat: at - st.due})
		}
	}
	b.settle(st)
	if seg.notify != nil {
		seg.notify <- i
	}
}

// settle releases what an outstanding op holds.
func (b *bench) settle(st *opState) {
	b.inflight.Add(-1)
	if b.boxOut != nil {
		b.boxOut[st.box].Add(-1)
	}
	if !st.seg.open && st.seg.keep {
		select {
		case b.slots[st.conn] <- struct{}{}:
		default:
		}
	}
}

// drain waits until no op is in flight; ops still outstanding after
// timeout are declared missing.
func (b *bench) drain(timeout time.Duration) {
	deadline := time.Now().Add(timeout)
	for b.inflight.Load() > 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if b.inflight.Load() == 0 {
		return
	}
	n := b.ops.next.Load()
	for i := int64(0); i < n; i++ {
		st := b.ops.get(i)
		if st.done.CompareAndSwap(0, 2) {
			b.settle(st)
			b.fail("missing reply")
		}
	}
}

// openLoop offers seg.rate ops/s for seg.dur in timer-paced bursts:
// each wake on the 1 ms grid releases the ops needed to hold the rate,
// all due at that wake. send transmits a burst.
func (b *bench) openLoop(seg *segment, send func(first int64, n int) error) error {
	const tick = time.Millisecond
	start := time.Now()
	seg.start = b.at(start)
	var released int64
	for k := int64(1); ; k++ {
		grid := start.Add(time.Duration(k) * tick)
		time.Sleep(time.Until(grid))
		wake := time.Now()
		if seg.keep {
			seg.lags = append(seg.lags, int64(wake.Sub(grid)))
		}
		el := wake.Sub(start)
		if el > seg.dur {
			el = seg.dur
		}
		want := int64(math.Floor(el.Seconds() * seg.rate))
		if n := int(want - released); n > 0 {
			due := b.at(wake)
			first, err := b.issue(seg, n, due, 0)
			if err != nil {
				return err
			}
			if err := send(first, n); err != nil {
				return err
			}
			released = want
		}
		if el >= seg.dur {
			break
		}
		// A late wake skips the grid points it overslept.
		if late := int64(wake.Sub(grid) / tick); late > 0 {
			k += late
		}
	}
	seg.end = b.now()
	return nil
}

// closedLoop keeps window ops in flight per connection for seg.dur:
// each sender waits for free slots and sends them as one burst.
func (b *bench) closedLoop(seg *segment, conns, window int, send func(conn int, first int64, n int) error) error {
	for c := 0; c < conns; c++ {
		for range window {
			b.slots[c] <- struct{}{}
		}
	}
	stop := make(chan struct{})
	errs := make(chan error, conns)
	var wg sync.WaitGroup
	seg.start = b.now()
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				case <-b.slots[c]:
				}
				n := 1
			more:
				for n < window {
					select {
					case <-b.slots[c]:
						n++
					default:
						break more
					}
				}
				first, err := b.issue(seg, n, b.now(), int32(c))
				if err == nil {
					err = send(c, first, n)
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	var err error
	select {
	case <-time.After(seg.dur):
	case err = <-errs:
	}
	close(stop)
	wg.Wait()
	seg.end = b.now()
	return err
}

// cpuTime is the process's user+sys CPU so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		fmt.Fprintln(os.Stderr, "getrusage:", err)
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// quantile returns the q-quantile of sorted xs (nearest rank).
func quantile(xs []int64, q float64) int64 {
	if len(xs) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	i = max(0, min(i, len(xs)-1))
	return xs[i]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// windowQuantiles splits the samples into equal due-time windows of at
// least minPerWindow samples (at most maxWindows of them) and returns
// each window's q-quantile. The reported figure is the median over the
// windows of every round: a stall that covers a few windows moves a
// whole-run p99, but not the median of windows.
func windowQuantiles(ss []sample, q float64, minPerWindow, maxWindows int) []float64 {
	if len(ss) == 0 {
		return nil
	}
	s := slices.Clone(ss)
	slices.SortFunc(s, func(a, b sample) int { return int((a.at - a.lat) - (b.at - b.lat)) })
	w := max(1, min(maxWindows, len(s)/minPerWindow))
	var per []float64
	lat := make([]int64, 0, len(s)/w+1)
	for k := 0; k < w; k++ {
		lat = lat[:0]
		for _, x := range s[k*len(s)/w : (k+1)*len(s)/w] {
			lat = append(lat, x.lat)
		}
		slices.Sort(lat)
		per = append(per, float64(quantile(lat, q)))
	}
	return per
}

// windowRates returns the completion rate in each of equal windows of
// the segment.
func windowRates(seg *segment, windows int) []float64 {
	span := seg.end - seg.start
	if span <= 0 {
		return nil
	}
	rates := make([]float64, windows)
	for _, x := range seg.samples {
		k := int((x.at - seg.start) * int64(windows) / span)
		if k >= 0 && k < windows {
			rates[k]++
		}
	}
	for k := range rates {
		rates[k] /= time.Duration(span / int64(windows)).Seconds()
	}
	return rates
}
