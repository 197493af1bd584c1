package main

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/client"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/dispatch/msgdisp"
	"repro/internal/echoservice"
	"repro/internal/httpx"
	"repro/internal/msgbox"
	"repro/internal/registry"
	"repro/internal/soap"
	"repro/internal/wsa"
)

const (
	host          = "127.0.0.1"
	asyncServices = 8   // logical async-echo services (async-fanout, mailbox-durable)
	mailboxes     = 256 // endpoint-less peers (mailbox-durable)
	takeMax       = 16  // messages per takeMessages poll
)

// mbox is one endpoint-less peer's mailbox and its generated requests.
type mbox struct {
	box  *client.Box
	tpl  *template // its peer's message, replying into the mailbox
	take []byte    // its poll request
}

// rig is one in-process deployment: the core.Server under test, the
// echo backends and peer endpoint it forwards to, and the load
// generator's client connections.
type rig struct {
	name   string
	label  string // names the round in trace dumps
	seed   uint64
	b      *bench
	tr     *tracer // nil in untraced runs
	inject string  // fault injection for the benchmark's own tests

	rpcPort, msgPort, mboxPort int
	storeDir                   string
	srv                        *core.Server
	lns                        []net.Listener // srv's listeners

	backends    []*httpx.Server // echo backends and the peer endpoint
	backendURLs []string
	peerURL     string
	injected    atomic.Int64

	mix     *mix
	boxes   []mbox
	parked  []int // backlog ops parked per mailbox
	backlog int   // backlog ops parked in all
	// walBytesPerMsg is the mailbox WAL's size per parked message.
	walBytesPerMsg float64
	conns          []*wireConn
	setupSeg       *segment
	probeSent      int

	// Mailbox poll accounting.
	polls, pollHits, taken atomic.Int64
}

// nextPort walks the listening ports a process hands out, from a
// per-process start below the kernel's ephemeral range.
var nextPort atomic.Int32

// freePort picks a free loopback port below the ephemeral range. The
// server listens on it by number and reopens it on restart, so it must
// not be one an outbound connection could take in between.
func freePort() (int, error) {
	low := 32768
	if b, err := os.ReadFile("/proc/sys/net/ipv4/ip_local_port_range"); err == nil {
		if f := strings.Fields(string(b)); len(f) == 2 {
			if n, err := strconv.Atoi(f[0]); err == nil {
				low = n
			}
		}
	}
	base := max(1024, low-16384)
	nextPort.CompareAndSwap(0, int32(os.Getpid()%(low-base)))
	for range low - base {
		port := base + int(nextPort.Add(1))%(low-base)
		ln, err := net.Listen("tcp", addr(port))
		if err == nil {
			ln.Close()
			return port, nil
		}
	}
	return 0, fmt.Errorf("no free port in [%d, %d)", base, low)
}

func addr(port int) string { return net.JoinHostPort(host, strconv.Itoa(port)) }

func newRig(name string, seed uint64, traced bool, workdir string) (*rig, error) {
	r := &rig{name: name, seed: seed, b: newBench(2)}
	r.setupSeg = &segment{name: "setup", notify: make(chan int64, 1)}
	if traced {
		r.tr = newTracer(r)
	}
	var err error
	for _, p := range []*int{&r.rpcPort, &r.msgPort, &r.mboxPort} {
		if *p, err = freePort(); err != nil {
			return nil, err
		}
	}
	if name == "mailbox-durable" {
		r.storeDir = filepath.Join(workdir, "store")
	}
	return r, nil
}

// startFixtures starts the echo backends (and the peer endpoint), which
// are test fixtures outside the set-up being timed.
func (r *rig) startFixtures() error {
	serve := func(label string, h httpx.Handler) (int, error) {
		ln, err := net.Listen("tcp", host+":0")
		if err != nil {
			return 0, err
		}
		srv := httpx.NewServer(r.tr.handler(label, h), httpx.ServerConfig{Clock: clock.Wall})
		srv.Start(ln)
		r.backends = append(r.backends, srv)
		return ln.Addr().(*net.TCPAddr).Port, nil
	}
	switch r.name {
	case "rpc-relay":
		for range 2 {
			port, err := serve("backend", r.injectRPC(echoservice.NewRPC(clock.Wall, 0)))
			if err != nil {
				return err
			}
			r.backendURLs = append(r.backendURLs, "http://"+addr(port)+"/echo")
		}
	default:
		var ports []int
		for range 2 {
			echo := echoservice.NewAsync(clock.Wall, httpx.NewClient(httpx.NetDialer{},
				httpx.ClientConfig{Clock: clock.Wall, MaxIdlePerHost: 256}), 0)
			port, err := serve("backend", r.injectAsync(echo))
			if err != nil {
				return err
			}
			echo.OwnAddress = "http://" + addr(port) + "/echo"
			ports = append(ports, port)
		}
		for k := range asyncServices {
			r.backendURLs = append(r.backendURLs,
				fmt.Sprintf("http://%s/echo%d", addr(ports[k%len(ports)]), k))
		}
	}
	if r.name == "async-fanout" {
		port, err := serve("peer", httpx.HandlerFunc(r.servePeer))
		if err != nil {
			return err
		}
		r.peerURL = "http://" + addr(port) + "/peer"
	}
	return r.buildMix()
}

// buildMix renders the workload's seeded request templates.
func (r *rig) buildMix() error {
	m := &mix{seed: r.seed}
	r.mix = m
	text := func(k uint64, n int) []byte { return payloadText(splitmix64(r.seed+k), n) }
	small := func(k uint64) int { return 64 + int(splitmix64(r.seed^k)%193) }
	switch r.name {
	case "rpc-relay":
		m.largePct = 10
		for k := range uint64(8) {
			t, err := rpcTemplate(addr(r.rpcPort), "/rpc/echo", "small", text(k, small(k)))
			if err != nil {
				return err
			}
			m.small = append(m.small, t)
		}
		for k := range uint64(2) {
			t, err := rpcTemplate(addr(r.rpcPort), "/rpc/echo", "large", text(100+k, 16<<10))
			if err != nil {
				return err
			}
			m.large = append(m.large, t)
		}
	case "async-fanout":
		m.largePct, m.otherPct = 10, 10
		for s := range uint64(asyncServices) {
			to := msgdisp.LogicalScheme + "echo" + strconv.Itoa(int(s))
			for k := range uint64(2) {
				t, err := msgTemplate(addr(r.msgPort), "/msg", to, r.peerURL, "small", text(s*10+k, small(s*10+k)))
				if err != nil {
					return err
				}
				m.small = append(m.small, t)
			}
			t, err := msgTemplate(addr(r.msgPort), "/msg", to, r.peerURL, "large", text(s*10+5, 64<<10))
			if err != nil {
				return err
			}
			m.large = append(m.large, t)
			t, err = msgTemplate(addr(r.msgPort), "/msg", to, r.peerURL, "foreign", text(s*10+6, small(s*10+6)))
			if err != nil {
				return err
			}
			m.other = append(m.other, t)
		}
	}
	return nil
}

// tplOf returns the template op i was generated from.
func (r *rig) tplOf(i int64) *template {
	if r.boxes != nil {
		return r.boxes[r.boxOf(i)].tpl
	}
	return r.mix.pick(i)
}

func (r *rig) boxOf(i int64) int32 {
	return int32(splitmix64(r.seed^uint64(i)^0x5bd1e995) % uint64(len(r.boxes)))
}

// newServer assembles the composition cmd/wsd runs, over loopback TCP
// on the rig's fixed ports.
func (r *rig) newServer() (*core.Server, error) {
	cfg := core.Config{
		Clock:    clock.Wall,
		HostName: host,
		Listen: func(port int) (net.Listener, error) {
			ln, err := net.Listen("tcp", addr(port))
			if err != nil {
				return nil, err
			}
			r.lns = append(r.lns, ln)
			return r.tr.listener(ln, port), nil
		},
		Dialer:   r.tr.dialer(httpx.NetDialer{}),
		Policy:   registry.PolicyRoundRobin,
		StoreDir: r.storeDir,
	}
	switch r.name {
	case "rpc-relay":
		cfg.RPCPort = r.rpcPort
	case "async-fanout":
		cfg.MsgPort = r.msgPort
	case "mailbox-durable":
		cfg.MsgPort, cfg.MsgBoxPort = r.msgPort, r.mboxPort
	}
	srv, err := core.New(cfg)
	if err != nil {
		return nil, err
	}
	if r.name == "rpc-relay" {
		srv.Registry.Register("echo", r.backendURLs...)
	} else {
		for k, u := range r.backendURLs {
			srv.Registry.Register("echo"+strconv.Itoa(k), u)
		}
	}
	if err := srv.Start(); err != nil {
		srv.Stop()
		r.closeListeners()
		return nil, err
	}
	return srv, nil
}

// stopServer stops the server under test and frees its ports. Its
// listeners are closed here as well: httpx.Server.Close leaves a
// listener open when it runs before the server's accept goroutine has
// started, and the next set-up reopens the same ports.
func (r *rig) stopServer() {
	if r.srv != nil {
		r.srv.Stop()
		r.srv = nil
	}
	r.closeListeners()
}

func (r *rig) closeListeners() {
	for _, ln := range r.lns {
		ln.Close() // a second close only reports that it is closed
	}
	r.lns = nil
}

// setup times one set-up: from core.New to the first verified exchange.
func (r *rig) setup() (time.Duration, error) {
	t0 := time.Now()
	srv, err := r.newServer()
	if err != nil {
		return 0, err
	}
	r.srv = srv
	if err := r.probe(); err != nil {
		return 0, fmt.Errorf("set-up probe: %w", err)
	}
	return time.Since(t0), nil
}

// probe performs one verified exchange on a fresh connection.
func (r *rig) probe() error {
	if r.name == "mailbox-durable" {
		n, err := r.peek(0)
		if err != nil {
			return err
		}
		if n != r.parked[0] {
			return fmt.Errorf("mailbox 0 holds %d messages after restart, want %d", n, r.parked[0])
		}
		return nil
	}
	w, err := dialWire(addr(r.frontPort()), r.onSendResp)
	if err != nil {
		return err
	}
	defer w.close()
	first, err := r.b.issue(r.setupSeg, 1, r.b.now(), 0)
	if err != nil {
		return err
	}
	if err := w.send([]int64{first}, func(dst []byte) []byte { return r.tplOf(first).appendOp(dst, first) }); err != nil {
		return err
	}
	select {
	case i := <-r.setupSeg.notify:
		if r.b.ops.get(i).done.Load() != 1 || r.setupSeg.delivered.Load() != r.setupSeg.offered.Load() {
			return fmt.Errorf("probe op %d failed verification", i)
		}
		return nil
	case <-time.After(10 * time.Second):
		return errors.New("probe timed out")
	}
}

func (r *rig) frontPort() int {
	if r.name == "rpc-relay" {
		return r.rpcPort
	}
	return r.msgPort
}

// onSendResp handles the response to a generated request: the echo
// itself for RPC, the dispatcher's 202 acceptance for messages.
func (r *rig) onSendResp(tag int64, status int, body []byte, at time.Time) {
	if r.name != "rpc-relay" {
		if status != httpx.StatusAccepted {
			r.b.complete(tag, r.b.at(at), false, "send refused: HTTP "+strconv.Itoa(status))
		}
		return
	}
	if status != httpx.StatusOK {
		r.b.complete(tag, r.b.at(at), false, "rpc failed: HTTP "+strconv.Itoa(status))
		return
	}
	op, _, err := r.verifyTokenAt(body, 0)
	switch {
	case err != nil:
		r.b.complete(tag, r.b.at(at), false, err.Error())
	case op != tag:
		r.b.complete(tag, r.b.at(at), false, "wrong echo")
	default:
		r.b.complete(tag, r.b.at(at), true, "")
	}
}

// verifyTokenAt finds the op token at or after from and checks that the
// op's exact payload text follows it. It returns the op (-1 when the
// token names no op) and the offset just past the text.
func (r *rig) verifyTokenAt(body []byte, from int) (int64, int, error) {
	k := bytes.Index(body[from:], []byte(tokenPrefix))
	if k < 0 {
		return -1, 0, errors.New("echo without op token")
	}
	p := from + k + len(tokenPrefix)
	op, ok := parseOpHex(body[p:])
	if !ok || r.b.ops.get(op) == nil {
		return -1, 0, errors.New("echo with unknown op token")
	}
	p += hexDigits
	text := r.tplOf(op).text
	if p+1+len(text) >= len(body) || body[p] != '-' || !bytes.Equal(body[p+1:p+1+len(text)], text) {
		return op, 0, errors.New("corrupted echo body")
	}
	p += 1 + len(text)
	if c := body[p]; c != '<' && c != '&' {
		return op, 0, errors.New("corrupted echo body")
	}
	return op, p, nil
}

// verifyReplies checks every WS-Addressing reply in body — one for a
// peer delivery, up to takeMax escaped ones in a mailbox take — and
// settles each op. It returns how many replies it found.
func (r *rig) verifyReplies(body []byte, at int64) int {
	n := 0
	for pos := 0; ; n++ {
		k := bytes.Index(body[pos:], []byte("RelatesTo"))
		if k < 0 {
			return n
		}
		// The value follows the open tag's attributes; the closing tag is
		// skipped with the payload below.
		v := pos + k + len("RelatesTo")
		rel, relOK := int64(0), false
		if j := bytes.Index(body[v:min(len(body), v+256)], []byte(msgIDPrefix)); j >= 0 {
			v += j + len(msgIDPrefix)
			rel, relOK = parseOpHex(body[v:])
		}
		op, end, err := r.verifyTokenAt(body, v)
		if op < 0 && relOK {
			op = rel
		}
		switch {
		case op < 0:
			r.b.fail(err.Error())
			return n + 1
		case err != nil:
			r.b.complete(op, at, false, err.Error())
		case !relOK || rel != op:
			r.b.complete(op, at, false, "reply with wrong RelatesTo")
		default:
			r.b.complete(op, at, true, "")
		}
		if end == 0 {
			return n + 1
		}
		pos = end
	}
}

// servePeer is the reachable peer's message endpoint: every reply the
// dispatcher routes back is verified on arrival.
func (r *rig) servePeer(ex *httpx.Exchange) {
	at := r.b.now()
	if r.verifyReplies(ex.Req.Body, at) == 0 {
		r.b.fail("peer delivery without a reply")
	}
	ex.ReplyBytes(httpx.StatusAccepted, nil)
}

// injectRPC and injectAsync wrap a backend with the fault the
// benchmark's own tests inject: "corrupt" flips one payload byte of the
// 20th request before the echo sees it; "drop" swallows that request.
const injectAt = 20

func (r *rig) injectRPC(h httpx.Handler) httpx.Handler {
	return r.injectWith(h, func(ex *httpx.Exchange) {
		ex.ReplyBytes(httpx.StatusOK, []byte("dropped"))
	})
}

func (r *rig) injectAsync(h httpx.Handler) httpx.Handler {
	return r.injectWith(h, func(ex *httpx.Exchange) {
		ex.ReplyBytes(httpx.StatusAccepted, nil)
	})
}

func (r *rig) injectWith(h httpx.Handler, drop func(ex *httpx.Exchange)) httpx.Handler {
	if r.inject == "" {
		return h
	}
	return httpx.HandlerFunc(func(ex *httpx.Exchange) {
		k := bytes.Index(ex.Req.Body, []byte(tokenPrefix))
		if k < 0 || r.injected.Add(1) != injectAt {
			h.Serve(ex)
			return
		}
		switch r.inject {
		case "corrupt":
			ex.Req.Body[k+len(tokenPrefix)+hexDigits+1] ^= 0x01
			h.Serve(ex)
		case "drop":
			drop(ex)
		}
	})
}

// --- mailbox-durable ---

// createBoxes makes the endpoint-less peers' mailboxes and their
// templates on the first server start.
func (r *rig) createBoxes() error {
	mc := client.NewMailboxClient(client.NewRPC(httpx.NewClient(httpx.NetDialer{},
		httpx.ClientConfig{Clock: clock.Wall})), r.srv.MsgBoxURL(), clock.Wall)
	r.boxes = make([]mbox, mailboxes)
	r.b.boxOut = make([]atomic.Int32, mailboxes)
	r.b.boxOf = r.boxOf
	r.parked = make([]int, mailboxes)
	for k := range r.boxes {
		box, err := mc.Create()
		if err != nil {
			return fmt.Errorf("create mailbox: %w", err)
		}
		to := msgdisp.LogicalScheme + "echo" + strconv.Itoa(k%asyncServices)
		text := payloadText(splitmix64(r.seed+uint64(k)), 64+int(splitmix64(r.seed^uint64(k))%193))
		tpl, err := msgTemplate(addr(r.msgPort), "/msg", to, box.Address, "small", text)
		if err != nil {
			return err
		}
		take, err := takeRequest(addr(r.mboxPort), "/mbox", box.ID, box.Token, takeMax)
		if err != nil {
			return err
		}
		r.boxes[k] = mbox{box: box, tpl: tpl, take: take}
	}
	return nil
}

// parkBacklog sends backlog messages whose replies park in the
// mailboxes, and waits until the mailbox service has stored them all.
func (r *rig) parkBacklog(n int) error {
	seg := &segment{name: "backlog"}
	w, err := dialWire(addr(r.msgPort), r.onSendResp)
	if err != nil {
		return err
	}
	defer w.close()
	const burst = 64
	for sent := 0; sent < n; sent += burst {
		k := min(burst, n-sent)
		first, err := r.b.issue(seg, k, r.b.now(), 0)
		if err != nil {
			return err
		}
		if err := r.sendBurst(w, first, k); err != nil {
			return err
		}
		for i := first; i < first+int64(k); i++ {
			r.parked[r.boxOf(i)]++
		}
		for w.inFlight() > 0 {
			time.Sleep(100 * time.Microsecond)
		}
	}
	deadline := time.Now().Add(30 * time.Second)
	for r.srv.MsgBox.Stored.Value() < int64(n) {
		if time.Now().After(deadline) {
			return fmt.Errorf("backlog: %d of %d replies parked", r.srv.MsgBox.Stored.Value(), n)
		}
		time.Sleep(time.Millisecond)
	}
	r.backlog = n
	files, err := filepath.Glob(filepath.Join(r.storeDir, "msgbox", "*.wal"))
	if err != nil {
		return err
	}
	var size int64
	for _, f := range files {
		if fi, err := os.Stat(f); err == nil {
			size += fi.Size()
		}
	}
	r.walBytesPerMsg = float64(size) / float64(n)
	return nil
}

// peek returns a mailbox's parked-message count over a fresh
// connection.
func (r *rig) peek(k int) (int, error) {
	b := r.boxes[k].box
	body, err := wsa.AppendEnvelope(nil, soap.RPCRequest(soap.V11, msgbox.ServiceNS, msgbox.OpPeek,
		soap.Param{Name: "boxId", Value: b.ID}, soap.Param{Name: "token", Value: b.Token}))
	if err != nil {
		return 0, err
	}
	got := make(chan []byte, 1)
	w, err := dialWire(addr(r.mboxPort), func(_ int64, status int, body []byte, _ time.Time) {
		if status != httpx.StatusOK {
			got <- nil
			return
		}
		got <- bytes.Clone(body)
	})
	if err != nil {
		return 0, err
	}
	defer w.close()
	if err := w.send([]int64{0}, func(dst []byte) []byte {
		return append(dst, httpRequest(addr(r.mboxPort), "/mbox", body, "")...)
	}); err != nil {
		return 0, err
	}
	select {
	case resp := <-got:
		i := bytes.Index(resp, []byte("<count>"))
		j := bytes.Index(resp, []byte("</count>"))
		if i < 0 || j < i {
			return 0, fmt.Errorf("bad peekCount response %q", resp)
		}
		return strconv.Atoi(string(resp[i+len("<count>") : j]))
	case <-time.After(10 * time.Second):
		return 0, errors.New("peekCount timed out")
	}
}

// poller drains the mailboxes that have replies coming: each round
// pipelines one takeMessages per such mailbox on the poll connection
// and waits for the answers. It returns when stop closes.
func (r *rig) poller(w *wireConn, stop <-chan struct{}, round chan int) {
	var tags []int64
	for {
		select {
		case <-stop:
			return
		default:
		}
		tags = tags[:0]
		for k := range r.boxes {
			if r.b.boxOut[k].Load() > 0 {
				tags = append(tags, int64(k))
			}
		}
		if len(tags) == 0 {
			time.Sleep(200 * time.Microsecond)
			continue
		}
		r.polls.Add(int64(len(tags)))
		if err := w.send(tags, func(dst []byte) []byte {
			for _, k := range tags {
				dst = append(dst, r.boxes[k].take...)
			}
			return dst
		}); err != nil {
			r.b.fail("poll send: " + err.Error())
			return
		}
		got := 0
		for range tags {
			select {
			case n := <-round:
				got += n
			case <-stop:
				return
			}
		}
		if got == 0 {
			time.Sleep(200 * time.Microsecond)
		}
	}
}

// onTake verifies one poll's messages; round reports how many it held.
func (r *rig) onTake(round chan<- int) func(tag int64, status int, body []byte, at time.Time) {
	return func(tag int64, status int, body []byte, at time.Time) {
		n := 0
		if status != httpx.StatusOK {
			r.b.fail("poll failed: HTTP " + strconv.Itoa(status))
		} else {
			n = r.verifyReplies(body, r.b.at(at))
		}
		if n > 0 {
			r.pollHits.Add(1)
			r.taken.Add(int64(n))
		}
		round <- n
	}
}

// sweepBoxes counts every mailbox's parked messages after the run:
// anything still parked was never taken, or taken twice over.
func (r *rig) sweepBoxes() error {
	for k := range r.boxes {
		n, err := r.peek(k)
		if err != nil {
			return err
		}
		if n != 0 {
			r.b.fail("unexpected message left in mailbox")
		}
	}
	return nil
}

// sendBurst writes ops first..first+n-1 on w in one pipelined write.
func (r *rig) sendBurst(w *wireConn, first int64, n int) error {
	tags := make([]int64, n)
	for j := range tags {
		tags[j] = first + int64(j)
	}
	return w.send(tags, func(dst []byte) []byte {
		for _, i := range tags {
			dst = r.tplOf(i).appendOp(dst, i)
		}
		return dst
	})
}

// close stops everything the rig started and removes its store.
func (r *rig) close() {
	for _, w := range r.conns {
		w.close()
	}
	r.stopServer()
	for _, s := range r.backends {
		s.Close()
	}
	if r.storeDir != "" {
		os.RemoveAll(r.storeDir)
	}
}
