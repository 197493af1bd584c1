package main

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime/metrics"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/httpx"
)

// The traced pass measures each layer from outside, at public seams
// only: httpx.Handler wrappers on the backends and the peer, wrappers on
// the net.Listener and httpx.Dialer handed to core.Config, the public
// stats counters, the WAL files on disk and runtime/metrics. Spans stay
// in memory and are written out when the pass ends.

// span is one layer's interval for one op. Spans of an op share its
// index as id (-1: not tied to an op, e.g. a mailbox poll).
type span struct {
	name, parent string
	id           int64
	start, end   int64 // ns since the run epoch
}

func (s span) dur() int64 { return s.end - s.start }

// parentOf names each span's causing span: the caller-side interval
// that contains it.
var parentOf = map[string]string{
	"ingress.rpc":          "client",
	"ingress.msg.request":  "client",
	"ingress.mbox.take":    "client",
	"egress.backend":       "ingress.rpc",
	"backend":              "egress.backend",
	"ingress.msg.reply":    "backend",
	"egress.peer":          "ingress.msg.reply",
	"peer":                 "egress.peer",
	"egress.mbox":          "ingress.msg.reply",
	"ingress.mbox.deliver": "egress.mbox",
}

type tracer struct {
	b *bench
	r *rig

	mu    sync.Mutex
	spans []span
	dials []int64 // dial durations, ns

	ingressWrites, ingressReplies atomic.Int64
	egressWrites, egressReqs      atomic.Int64
	dialCount                     atomic.Int64

	// Peaks sampled while the measured window is open.
	measuring               atomic.Bool
	pendingPeak, goroutPeak atomic.Int64
	heapPeak                atomic.Int64
	stop, stopped           chan struct{}
	win0, win1              counters // at light start and sat end
	rm0, rm1                []metrics.Sample
}

// counters is a snapshot of the cumulative counts the per-layer ratios
// are taken over.
type counters struct {
	at                                    int64
	ingressWrites, ingressReplies         int64
	egressWrites, egressReqs, dials       int64
	fwdToWS, repliesDelivered, holdRearms int64
	polls, pollHits, taken                int64
	opsNext                               int64
}

func newTracer(r *rig) *tracer { return &tracer{b: r.b, r: r} }

func (t *tracer) record(name string, id, start, end int64) {
	t.mu.Lock()
	t.spans = append(t.spans, span{name: name, parent: parentOf[name], id: id, start: start, end: end})
	t.mu.Unlock()
}

// opOf returns the op whose token the captured body prefix carries.
func opOf(b []byte) int64 {
	k := bytes.Index(b, []byte(tokenPrefix))
	if k < 0 {
		return -1
	}
	op, ok := parseOpHex(b[k+len(tokenPrefix):])
	if !ok {
		return -1
	}
	return op
}

// handler wraps a backend or peer handler with a span per exchange.
func (t *tracer) handler(label string, h httpx.Handler) httpx.Handler {
	if t == nil {
		return h
	}
	return httpx.HandlerFunc(func(ex *httpx.Exchange) {
		start := t.b.now()
		id := opOf(ex.Req.Body)
		h.Serve(ex)
		t.record(label, id, start, t.b.now())
	})
}

// framer follows HTTP/1.1 message boundaries in one direction of a
// connection's byte stream (Content-Length framing only, as the
// program's server and client both frame). It captures each message's
// path or status and the first bytes of its body.
type framer struct {
	head      []byte
	inBody    bool
	remaining int
	capture   []byte
	started   bool
	start     int64
}

const captureLen = 4 << 10

// feed consumes p, seen at time now; done runs for each message whose
// last byte p carries, with the time its first byte was seen.
func (f *framer) feed(p []byte, now int64, done func(start int64, firstLine, body []byte)) {
	for len(p) > 0 {
		if !f.started {
			f.started, f.start = true, now
		}
		if !f.inBody {
			old := len(f.head)
			f.head = append(f.head, p...)
			i := bytes.Index(f.head[max(0, old-3):], []byte("\r\n\r\n"))
			if i < 0 {
				p = nil
				continue
			}
			end := max(0, old-3) + i + 4
			p = p[end-old:]
			f.head = f.head[:end]
			f.inBody, f.remaining, f.capture = true, contentLength(f.head), f.capture[:0]
		} else {
			n := min(f.remaining, len(p))
			if c := min(n, captureLen-len(f.capture)); c > 0 {
				f.capture = append(f.capture, p[:c]...)
			}
			f.remaining -= n
			p = p[n:]
		}
		if f.inBody && f.remaining == 0 {
			line, _, _ := bytes.Cut(f.head, []byte("\r\n"))
			done(f.start, line, f.capture)
			f.head, f.inBody, f.started = f.head[:0], false, false
		}
	}
}

func contentLength(head []byte) int {
	for _, line := range bytes.Split(head, []byte("\r\n")) {
		k, v, ok := bytes.Cut(line, []byte(":"))
		if ok && bytes.EqualFold(bytes.TrimSpace(k), []byte("Content-Length")) {
			n, _ := strconv.Atoi(string(bytes.TrimSpace(v)))
			return n
		}
	}
	return 0
}

// pending is a request seen on a connection and not yet answered.
type pending struct {
	name  string
	id    int64
	start int64
}

// tconn traces one connection. On an ingress connection requests are
// read and replies written; on an egress connection the reverse. HTTP/1.1
// answers in order, so a FIFO pairs each reply with its request.
type tconn struct {
	net.Conn
	t       *tracer
	ingress bool
	label   string // listener port role, or destination role for egress

	mu     sync.Mutex
	rd, wr framer
	fifo   []pending
}

func (c *tconn) classify(firstLine, body []byte) string {
	path := ""
	if f := bytes.Fields(firstLine); len(f) >= 2 {
		path = string(f[1])
	}
	if !c.ingress {
		return "egress." + c.label
	}
	switch c.label {
	case "msg":
		if bytes.Contains(body, []byte("RelatesTo")) {
			return "ingress.msg.reply"
		}
		return "ingress.msg.request"
	case "mbox":
		if path == "/mbox" {
			return "ingress.mbox.take"
		}
		return "ingress.mbox.deliver"
	}
	return "ingress." + c.label
}

func (c *tconn) push(start int64, firstLine, body []byte) {
	c.fifo = append(c.fifo, pending{name: c.classify(firstLine, body), id: opOf(body), start: start})
}

func (c *tconn) pop(end int64) {
	if len(c.fifo) == 0 {
		return
	}
	p := c.fifo[0]
	c.fifo = c.fifo[1:]
	c.t.record(p.name, p.id, p.start, end)
}

func (c *tconn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		now := c.t.b.now()
		c.mu.Lock()
		if c.ingress {
			c.rd.feed(p[:n], now, func(start int64, line, body []byte) { c.push(start, line, body) })
		} else {
			c.rd.feed(p[:n], now, func(int64, []byte, []byte) { c.pop(now) })
		}
		c.mu.Unlock()
	}
	return n, err
}

func (c *tconn) Write(p []byte) (int, error) {
	if !c.ingress {
		// Requests are framed before they leave, so the reply a fast
		// peer sends back always finds its request queued.
		start := c.t.b.now()
		c.mu.Lock()
		c.t.egressWrites.Add(1)
		c.wr.feed(p, start, func(s int64, line, body []byte) {
			c.t.egressReqs.Add(1)
			c.push(s, line, body)
		})
		c.mu.Unlock()
		return c.Conn.Write(p)
	}
	n, err := c.Conn.Write(p)
	now := c.t.b.now()
	c.mu.Lock()
	c.t.ingressWrites.Add(1)
	c.wr.feed(p[:n], now, func(int64, []byte, []byte) {
		c.t.ingressReplies.Add(1)
		c.pop(now)
	})
	c.mu.Unlock()
	return n, err
}

type tlistener struct {
	net.Listener
	t     *tracer
	label string
}

func (l *tlistener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &tconn{Conn: c, t: l.t, ingress: true, label: l.label}, nil
}

// listener wraps a core.Server listener; the port names its role.
func (t *tracer) listener(ln net.Listener, port int) net.Listener {
	if t == nil {
		return ln
	}
	label := map[int]string{t.r.rpcPort: "rpc", t.r.msgPort: "msg", t.r.mboxPort: "mbox"}[port]
	return &tlistener{Listener: ln, t: t, label: label}
}

type tdialer struct {
	d httpx.Dialer
	t *tracer
}

func (d tdialer) DialTimeout(addr string, timeout time.Duration) (net.Conn, error) {
	start := d.t.b.now()
	c, err := d.d.DialTimeout(addr, timeout)
	if err != nil {
		return nil, err
	}
	d.t.dialCount.Add(1)
	d.t.mu.Lock()
	d.t.dials = append(d.t.dials, d.t.b.now()-start)
	d.t.mu.Unlock()
	return &tconn{Conn: c, t: d.t, label: d.t.roleOf(addr)}, nil
}

// roleOf names an egress destination by the rig's ports.
func (t *tracer) roleOf(addr string) string {
	r := t.r
	switch {
	case r.peerURL != "" && bytes.Contains([]byte(r.peerURL), []byte("//"+addr+"/")):
		return "peer"
	case addr == net.JoinHostPort(host, strconv.Itoa(r.mboxPort)):
		return "mbox"
	}
	return "backend"
}

// dialer wraps the dispatcher's outbound dialer.
func (t *tracer) dialer(d httpx.Dialer) httpx.Dialer {
	if t == nil {
		return d
	}
	return tdialer{d: d, t: t}
}

var rmNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/sched/goroutines:goroutines",
	"/memory/classes/heap/objects:bytes",
}

func readRuntime() []metrics.Sample {
	s := make([]metrics.Sample, len(rmNames))
	for i, n := range rmNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return s
}

func rmFloat(s metrics.Sample) float64 {
	switch s.Value.Kind() {
	case metrics.KindUint64:
		return float64(s.Value.Uint64())
	case metrics.KindFloat64:
		return s.Value.Float64()
	}
	return 0
}

// start launches the peak sampler once set-up is done.
func (t *tracer) start() {
	if t == nil {
		return
	}
	r := t.r
	t.stop, t.stopped = make(chan struct{}), make(chan struct{})
	go func() {
		defer close(t.stopped)
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		s := make([]metrics.Sample, 2)
		s[0].Name, s[1].Name = rmNames[4], rmNames[5]
		for {
			select {
			case <-t.stop:
				return
			case <-tick.C:
			}
			if !t.measuring.Load() {
				continue
			}
			metrics.Read(s)
			peak(&t.goroutPeak, int64(rmFloat(s[0])))
			peak(&t.heapPeak, int64(rmFloat(s[1])))
			if r.srv.Msg != nil {
				peak(&t.pendingPeak, int64(r.srv.Msg.PendingLen()))
			}
		}
	}()
}

func peak(p *atomic.Int64, v int64) {
	for {
		old := p.Load()
		if v <= old || p.CompareAndSwap(old, v) {
			return
		}
	}
}

func (t *tracer) snapshot() counters {
	r := t.r
	c := counters{at: t.b.now(),
		ingressWrites: t.ingressWrites.Load(), ingressReplies: t.ingressReplies.Load(),
		egressWrites: t.egressWrites.Load(), egressReqs: t.egressReqs.Load(), dials: t.dialCount.Load(),
		polls: r.polls.Load(), pollHits: r.pollHits.Load(), taken: r.taken.Load(),
		opsNext: t.b.ops.next.Load()}
	if m := r.srv.Msg; m != nil {
		c.fwdToWS, c.repliesDelivered, c.holdRearms = m.ForwardedToWS.Value(), m.RepliesDelivered.Value(), m.HoldOpenRearms.Value()
	}
	return c
}

// segment opens the measured window at light's start and closes it at
// the saturation segment's end.
func (t *tracer) segment(seg *segment, begin bool) {
	if t == nil {
		return
	}
	switch {
	case begin && seg.name == "light":
		t.win0, t.rm0 = t.snapshot(), readRuntime()
		t.measuring.Store(true)
	case !begin && seg.name == "sat":
		t.measuring.Store(false)
		t.win1, t.rm1 = t.snapshot(), readRuntime()
	}
}

// layerStats indexes the window's spans.
type layerStats struct {
	byName map[string][]span
	byOp   map[string]map[int64]span
}

func (t *tracer) index() layerStats {
	ls := layerStats{byName: map[string][]span{}, byOp: map[string]map[int64]span{}}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		if s.start < t.win0.at || s.start > t.win1.at {
			continue
		}
		ls.byName[s.name] = append(ls.byName[s.name], s)
		if s.id >= 0 {
			m := ls.byOp[s.name]
			if m == nil {
				m = map[int64]span{}
				ls.byOp[s.name] = m
			}
			m[s.id] = s
		}
	}
	return ls
}

func pctUs(xs []int64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	return float64(quantile(s, q)) / 1e3
}

func durs(ss []span) []int64 {
	out := make([]int64, len(ss))
	for i, s := range ss {
		out[i] = s.dur()
	}
	return out
}

// gaps returns, per op present in both, to(op) - from(op) as picked.
func gaps(from, to map[int64]span, pick func(a, b span) int64) []int64 {
	var out []int64
	for id, a := range from {
		if b, ok := to[id]; ok {
			out = append(out, pick(a, b))
		}
	}
	return out
}

// selfTime is a span's duration minus the part its children cover.
func selfTime(s span, children []span) int64 {
	var covered int64
	for _, c := range children {
		lo, hi := max(s.start, c.start), min(s.end, c.end)
		if hi > lo {
			covered += hi - lo
		}
	}
	return max(0, s.dur()-covered)
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// layers computes the per-layer metrics of the traced pass, prints the
// self time of every span kind and writes the span dump.
func (t *tracer) layers(segs []*segment, lags []int64, setupTimes []float64) []metric {
	r := t.r
	close(t.stop)
	<-t.stopped
	ls := t.index()
	w0, w1 := t.win0, t.win1
	wall := float64(w1.at-w0.at) / 1e9
	var done int64
	for _, s := range segs[1:] {
		done += s.delivered.Load()
	}

	// Self time per span kind: children are the spans of the same op
	// whose parent is this kind.
	children := map[string][]string{}
	for c, p := range parentOf {
		children[p] = append(children[p], c)
	}
	var names []string
	for n := range ls.byName {
		names = append(names, n)
	}
	slices.Sort(names)
	selfP50 := map[string]float64{}
	fmt.Println("== self time per layer (measured window)")
	for _, n := range names {
		var self []int64
		for _, s := range ls.byName[n] {
			var kids []span
			for _, c := range children[n] {
				if k, ok := ls.byOp[c][s.id]; ok && s.id >= 0 {
					kids = append(kids, k)
				}
			}
			self = append(self, selfTime(s, kids))
		}
		selfP50[n] = pctUs(self, 0.5)
		fmt.Printf("%-24s n=%-8d dur_p50=%9.1fus self_p50=%9.1fus\n", n, len(ls.byName[n]),
			pctUs(durs(ls.byName[n]), 0.5), selfP50[n])
	}

	var ingress []int64
	for _, n := range []string{"ingress.rpc", "ingress.msg.request", "ingress.mbox.take"} {
		ingress = append(ingress, durs(ls.byName[n])...)
	}
	var rpcSelf, rpcFwd []int64
	if r.name == "rpc-relay" {
		for id, s := range ls.byOp["ingress.rpc"] {
			var kids []span
			if k, ok := ls.byOp["egress.backend"][id]; ok {
				kids = append(kids, k)
			}
			rpcSelf = append(rpcSelf, selfTime(s, kids))
		}
		rpcFwd = durs(ls.byName["egress.backend"])
	}
	fwdWait := gaps(ls.byOp["ingress.msg.request"], ls.byOp["backend"], func(a, b span) int64 { return b.start - a.end })
	routeTo := ls.byOp["peer"]
	if r.name == "mailbox-durable" {
		routeTo = ls.byOp["ingress.mbox.deliver"]
	}
	replyRoute := gaps(ls.byOp["ingress.msg.reply"], routeTo, func(a, b span) int64 { return b.start - a.start })
	var dialsAll []int64
	t.mu.Lock()
	dialsAll = slices.Clone(t.dials)
	t.mu.Unlock()

	var skim int64
	for i := w0.opsNext; i < w1.opsNext; i++ {
		if r.tplOf(i).skimOK {
			skim++
		}
	}
	var backendBusy int64
	for _, s := range ls.byName["backend"] {
		backendBusy += s.dur()
	}

	var fwd, fwdFail, failovers, rejected, drops, delivFail, handed, pendingEnd, storeFail int64
	if d := r.srv.RPC; d != nil {
		fwd, fwdFail, failovers = d.Forwarded.Value(), d.ForwardFailures.Value(), d.Failovers.Value()
	}
	if m := r.srv.Msg; m != nil {
		rejected, drops, delivFail, handed = m.Rejected.Value(), m.QueueDrops.Value(), m.DeliveryFailures.Value(), m.HandedToCourier.Value()
	}
	if c := r.srv.Courier; c != nil {
		pendingEnd = int64(c.Pending())
	}
	if mb := r.srv.MsgBox; mb != nil {
		storeFail = mb.StoreFailures.Value()
	}
	var walSegs int
	replay := 0.0
	if r.storeDir != "" {
		files, _ := filepath.Glob(filepath.Join(r.storeDir, "*", "*.wal"))
		walSegs = len(files)
		replay = float64(r.backlog) / median(setupTimes)
	}

	offered := 1.0
	for _, s := range segs[1:3] {
		offered = min(offered, ratio(s.delivered.Load(), s.offered.Load()))
	}
	rm := func(i int) float64 { return rmFloat(t.rm1[i]) - rmFloat(t.rm0[i]) }

	ms := []metric{
		{name: "httpx.ingress.service_us_p50", value: pctUs(ingress, 0.5), unit: "us", n: len(ingress)},
		{name: "httpx.ingress.service_us_p99", value: pctUs(ingress, 0.99), unit: "us", n: len(ingress)},
		{name: "httpx.ingress.writes_per_reply", value: ratio(w1.ingressWrites-w0.ingressWrites, w1.ingressReplies-w0.ingressReplies), unit: "ratio"},
		{name: "httpx.egress.dials_per_kop", value: 1000 * ratio(w1.dials-w0.dials, done), unit: "count"},
		{name: "httpx.egress.dial_us_p50", value: pctUs(dialsAll, 0.5), unit: "us", n: len(dialsAll)},
		{name: "httpx.egress.msgs_per_write", value: ratio(w1.egressReqs-w0.egressReqs, w1.egressWrites-w0.egressWrites), unit: "ratio"},
		{name: "rpcdisp.self_us_p50", value: pctUs(rpcSelf, 0.5), unit: "us", n: len(rpcSelf)},
		{name: "rpcdisp.forward_us_p50", value: pctUs(rpcFwd, 0.5), unit: "us", n: len(rpcFwd)},
		{name: "rpcdisp.forwarded", value: float64(fwd), unit: "count"},
		{name: "rpcdisp.forward_failures", value: float64(fwdFail), unit: "count"},
		{name: "rpcdisp.failovers", value: float64(failovers), unit: "count"},
		{name: "msgdisp.accept_us_p50", value: pctUs(durs(ls.byName["ingress.msg.request"]), 0.5), unit: "us", n: len(ls.byName["ingress.msg.request"])},
		{name: "msgdisp.accept_us_p99", value: pctUs(durs(ls.byName["ingress.msg.request"]), 0.99), unit: "us", n: len(ls.byName["ingress.msg.request"])},
		{name: "msgdisp.forward_wait_us_p50", value: pctUs(fwdWait, 0.5), unit: "us", n: len(fwdWait)},
		{name: "msgdisp.forward_wait_us_p99", value: pctUs(fwdWait, 0.99), unit: "us", n: len(fwdWait)},
		{name: "msgdisp.reply_route_us_p50", value: pctUs(replyRoute, 0.5), unit: "us", n: len(replyRoute)},
		{name: "msgdisp.reply_route_us_p99", value: pctUs(replyRoute, 0.99), unit: "us", n: len(replyRoute)},
		{name: "msgdisp.msgs_per_burst", value: ratio(w1.fwdToWS-w0.fwdToWS+w1.repliesDelivered-w0.repliesDelivered, w1.holdRearms-w0.holdRearms), unit: "ratio"},
		{name: "msgdisp.pending_peak", value: float64(t.pendingPeak.Load()), unit: "count"},
		{name: "msgdisp.rejected", value: float64(rejected), unit: "count"},
		{name: "msgdisp.queue_drops", value: float64(drops), unit: "count"},
		{name: "msgdisp.delivery_failures", value: float64(delivFail), unit: "count"},
		{name: "wsa.fastpath_share", value: ratio(skim, w1.opsNext-w0.opsNext), unit: "ratio"},
		{name: "msgbox.deliver_us_p50", value: pctUs(durs(ls.byName["ingress.mbox.deliver"]), 0.5), unit: "us", n: len(ls.byName["ingress.mbox.deliver"])},
		{name: "msgbox.deliver_us_p99", value: pctUs(durs(ls.byName["ingress.mbox.deliver"]), 0.99), unit: "us", n: len(ls.byName["ingress.mbox.deliver"])},
		{name: "msgbox.take_us_p50", value: pctUs(durs(ls.byName["ingress.mbox.take"]), 0.5), unit: "us", n: len(ls.byName["ingress.mbox.take"])},
		{name: "msgbox.take_us_p99", value: pctUs(durs(ls.byName["ingress.mbox.take"]), 0.99), unit: "us", n: len(ls.byName["ingress.mbox.take"])},
		{name: "msgbox.msgs_per_take", value: ratio(w1.taken-w0.taken, w1.polls-w0.polls), unit: "ratio"},
		{name: "msgbox.useful_take_share", value: ratio(w1.pollHits-w0.pollHits, w1.polls-w0.polls), unit: "ratio"},
		{name: "msgbox.store_failures", value: float64(storeFail), unit: "count"},
		{name: "wal.bytes_per_msg", value: r.walBytesPerMsg, unit: "B"},
		{name: "wal.segments", value: float64(walSegs), unit: "count"},
		{name: "wal.replay_recs_per_s", value: replay, unit: "1/s"},
		{name: "courier.handed", value: float64(handed), unit: "count"},
		{name: "courier.pending_end", value: float64(pendingEnd), unit: "count"},
		{name: "backend.serve_us_p50", value: pctUs(durs(ls.byName["backend"]), 0.5), unit: "us", n: len(ls.byName["backend"])},
		{name: "backend.busy_share", value: float64(backendBusy) / 1e9 / wall, unit: "ratio"},
		{name: "proc.alloc_bytes_per_op", value: rm(0) / float64(max(1, done)), unit: "B"},
		{name: "proc.allocs_per_op", value: rm(1) / float64(max(1, done)), unit: "count"},
		{name: "proc.gc_cpu_share", value: rm(2) / rm(3), unit: "ratio"},
		{name: "proc.goroutines_peak", value: float64(t.goroutPeak.Load()), unit: "count"},
		{name: "proc.heap_peak_mb", value: float64(t.heapPeak.Load()) / (1 << 20), unit: "MiB"},
		{name: "gen.lag_ms_p99", value: float64(quantile(lags, 0.99)) / 1e6, unit: "ms", n: len(lags)},
		{name: "gen.offered_vs_delivered", value: offered, unit: "ratio"},
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := t.dump(r); err != nil {
		fmt.Fprintln(os.Stderr, "span dump:", err)
	}
	return ms
}

// dump writes every span of the pass, gzipped CSV, under .bench_build.
func (t *tracer) dump(r *rig) error {
	dir := filepath.Join(".bench_build", "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, r.label+".csv.gz")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	zw := gzip.NewWriter(f)
	bw := bufio.NewWriter(zw)
	fmt.Fprintln(bw, "name,parent,id,start_ns,end_ns")
	for _, s := range t.spans {
		fmt.Fprintf(bw, "%s,%s,%d,%d,%d\n", s.name, s.parent, s.id, s.start, s.end)
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	if err := zw.Close(); err != nil {
		return err
	}
	fmt.Printf("spans: %d written to %s\n", len(t.spans), path)
	return f.Close()
}
