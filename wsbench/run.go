package main

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"time"
)

// A run is rounds independent rounds, each on a freshly set-up rig
// given an equal share of --seconds: a rig settles into its own
// latency level (connection and goroutine placement), so the median
// over fresh rigs is steadier than one long rig. Each round sets the
// server up setupsPerRound times; setup_s is the median of them all.
const (
	rounds         = 4
	setupsPerRound = 10
)

// Validity bounds: a run whose generator could not hold the offered
// rate measured the generator, not the program.
const (
	maxDeliveredShortfall = 0.01 // of the ops offered in light or heavy
	maxGenLagP99          = 20 * time.Millisecond
)

// Segment shares of --seconds.
const (
	warmShare  = 0.15
	lightShare = 0.35
	heavyShare = 0.30
	satShare   = 0.20
)

type passOptions struct {
	name    string
	cfg     workloadConfig
	seed    uint64
	seconds float64
	scale   float64
	inject  string
	workdir string
	traced  bool
	// drain bounds the wait for a segment's outstanding replies; ops
	// still outstanding then count as missing.
	drain time.Duration
}

// outcome is one pass's (or round's) verdict and figures.
type outcome struct {
	attempted, failed int64
	reasons           map[string]int64
	notes             []string // validity failures
	e2e, layers       []metric
	setupTimes        []float64
	// windows holds a round's per-window values of the windowed
	// metrics; a pass reports the median over all rounds' windows.
	windows map[string][]float64
}

func (o *outcome) correct() bool { return o.failed == 0 && len(o.notes) == 0 }

// mergeOutcome sums the verdicts of several passes or rounds.
func mergeOutcome(parts ...*outcome) *outcome {
	m := &outcome{reasons: map[string]int64{}}
	for _, o := range parts {
		m.attempted += o.attempted
		m.failed += o.failed
		m.notes = append(m.notes, o.notes...)
		m.setupTimes = append(m.setupTimes, o.setupTimes...)
		for k, v := range o.reasons {
			m.reasons[k] += v
		}
	}
	return m
}

// runPass runs the rounds and reports each metric's median over them.
func runPass(o passOptions) (*outcome, error) {
	var rs []*outcome
	for k := range rounds {
		oc, err := runRound(o, k)
		if err != nil {
			return nil, fmt.Errorf("round %d: %w", k, err)
		}
		rs = append(rs, oc)
	}
	out := mergeOutcome(rs...)
	medians := func(pick func(*outcome) []metric) []metric {
		var ms []metric
		for i, m := range pick(rs[0]) {
			var vs []float64
			n := 0
			for _, oc := range rs {
				if w, ok := oc.windows[m.name]; ok {
					vs = append(vs, w...)
				} else {
					vs = append(vs, pick(oc)[i].value)
				}
				n += pick(oc)[i].n
			}
			ms = append(ms, metric{name: m.name, value: median(vs), unit: m.unit, n: n})
		}
		return ms
	}
	out.e2e = medians(func(oc *outcome) []metric { return oc.e2e })
	for i, m := range out.e2e {
		switch m.name {
		case "setup_s": // the median of every set-up, not of round medians
			out.e2e[i].value, out.e2e[i].n = median(out.setupTimes), len(out.setupTimes)
		case "peak_rss_mb": // the process's peak over all rounds
			out.e2e[i].value = readPeakRSS()
		}
	}
	if o.traced {
		out.layers = medians(func(oc *outcome) []metric { return oc.layers })
	}
	return out, nil
}

// runRound sets up a fresh rig and runs warm-up, light, heavy and
// saturation on it.
func runRound(o passOptions, round int) (*outcome, error) {
	S := time.Duration(o.seconds * float64(time.Second) / rounds)
	workdir := filepath.Join(o.workdir, fmt.Sprintf("round-%d", round))
	r, err := newRig(o.name, splitmix64(o.seed)+uint64(round), o.traced, workdir)
	if err != nil {
		return nil, err
	}
	r.inject = o.inject
	r.label = fmt.Sprintf("%s-seed%d-round%d", o.name, o.seed, round)
	defer r.close()
	if err := r.startFixtures(); err != nil {
		return nil, err
	}
	if r.name == "mailbox-durable" {
		srv, err := r.newServer()
		if err != nil {
			return nil, err
		}
		r.srv = srv
		if err := r.createBoxes(); err != nil {
			return nil, err
		}
		if err := r.parkBacklog(max(1, int(float64(o.cfg.Backlog)*o.scale))); err != nil {
			return nil, err
		}
		r.stopServer()
	}
	var setupTimes []float64
	for k := range setupsPerRound {
		d, err := r.setup()
		if err != nil {
			return nil, err
		}
		setupTimes = append(setupTimes, d.Seconds())
		if k < setupsPerRound-1 {
			r.stopServer()
		}
	}
	r.tr.start()

	sendConns := 2
	if r.name == "mailbox-durable" {
		sendConns = 1
		// One slot per mailbox: a poll round has at most one take in
		// flight per mailbox, so the reader never blocks on it.
		round := make(chan int, mailboxes)
		pw, err := dialWire(addr(r.mboxPort), r.onTake(round))
		if err != nil {
			return nil, err
		}
		stopPoll, pollDone := make(chan struct{}), make(chan struct{})
		go func() {
			defer close(pollDone)
			r.poller(pw, stopPoll, round)
		}()
		defer func() {
			close(stopPoll)
			<-pollDone
			pw.close()
		}()
	}
	for range sendConns {
		w, err := dialWire(addr(r.frontPort()), r.onSendResp)
		if err != nil {
			return nil, err
		}
		r.conns = append(r.conns, w)
	}

	heavyRate := o.cfg.Heavy * o.scale
	segs := []*segment{
		{name: "warm", open: true, rate: heavyRate, dur: time.Duration(warmShare * float64(S))},
		{name: "light", open: true, rate: o.cfg.Light * o.scale, dur: time.Duration(lightShare * float64(S)), keep: true},
		{name: "heavy", open: true, rate: heavyRate, dur: time.Duration(heavyShare * float64(S)), keep: true},
		{name: "sat", dur: time.Duration(satShare * float64(S)), keep: true},
	}
	window := max(1, min(maxWindow, int(float64(o.cfg.Window)*o.scale)))
	openSend := func(first int64, n int) error {
		per := (n + len(r.conns) - 1) / len(r.conns)
		for c, w := range r.conns {
			lo := min(n, c*per)
			hi := min(n, lo+per)
			if hi > lo {
				if err := r.sendBurst(w, first+int64(lo), hi-lo); err != nil {
					return err
				}
			}
		}
		return nil
	}
	closedSend := func(c int, first int64, n int) error {
		return r.sendBurst(r.conns[c], first, n)
	}
	for _, seg := range segs {
		cpu0 := cpuTime()
		r.tr.segment(seg, true)
		if seg.open {
			err = r.b.openLoop(seg, openSend)
		} else {
			err = r.b.closedLoop(seg, len(r.conns), window, closedSend)
		}
		if err != nil {
			return nil, fmt.Errorf("segment %s: %w", seg.name, err)
		}
		r.b.drain(o.drain)
		seg.cpu = cpuTime() - cpu0
		r.tr.segment(seg, false)
	}
	if r.name == "mailbox-durable" {
		if err := r.sweepBoxes(); err != nil {
			return nil, err
		}
	}

	out := &outcome{attempted: r.b.attempted.Load(), failed: r.b.failed.Load(), reasons: r.b.failures(),
		setupTimes: setupTimes}
	light, heavy, sat := segs[1], segs[2], segs[3]
	var lags []int64
	for _, seg := range []*segment{light, heavy} {
		ratio := float64(seg.delivered.Load()) / float64(max(1, seg.offered.Load()))
		if ratio < 1-maxDeliveredShortfall {
			out.notes = append(out.notes, fmt.Sprintf("%s delivered %.4f of offered", seg.name, ratio))
		}
		lags = append(lags, seg.lags...)
	}
	slices.Sort(lags)
	if lag := time.Duration(quantile(lags, 0.99)); lag > maxGenLagP99 {
		out.notes = append(out.notes, fmt.Sprintf("generator wake lag p99 %v exceeds %v", lag, maxGenLagP99))
	}

	out.windows = map[string][]float64{}
	windowed := func(name, unit string, n int, per []float64) metric {
		out.windows[name] = per
		return metric{name: name, value: median(per), unit: unit, n: n}
	}
	lat := func(seg *segment, q float64) metric {
		per := windowQuantiles(seg.samples, q, 1000, 20)
		for i := range per {
			per[i] /= 1e6
		}
		return windowed(fmt.Sprintf("lat_p%d_ms.%s", int(q*100), seg.name), "ms", len(seg.samples), per)
	}
	out.e2e = []metric{
		{name: "setup_s", value: median(setupTimes), unit: "s", n: len(setupTimes)},
		lat(light, 0.50), lat(light, 0.99), lat(heavy, 0.50), lat(heavy, 0.99),
		windowed("sat_ops_s", "ops/s", len(sat.samples), windowRates(sat, 10)),
		{name: "cpu_us_per_op.heavy", value: float64(heavy.cpu.Microseconds()) / float64(max(1, heavy.delivered.Load())), unit: "us", n: int(heavy.delivered.Load())},
		{name: "peak_rss_mb", value: readPeakRSS(), unit: "MiB"},
	}
	if r.tr != nil {
		out.layers = r.tr.layers(segs, lags, setupTimes)
	}
	fmt.Fprintf(os.Stderr, "%s round %d: %d ops, %d failed\n", o.name, round, out.attempted, out.failed)
	return out, nil
}
