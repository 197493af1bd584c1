package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"sync"
	"time"
)

// wireConn is the load generator's client connection: a raw pipelined
// HTTP/1.1 stream, independent of the program's own HTTP client. One
// goroutine writes bursts of requests; a reader goroutine parses the
// responses in order and hands each to onResp with the tag the writer
// queued for it. Sends never wait for replies, which is what keeps the
// open loop open.
type wireConn struct {
	c      net.Conn
	onResp func(tag int64, status int, body []byte, at time.Time)

	mu   sync.Mutex
	fifo []int64 // tags of requests written and not yet answered
	head int
	wbuf []byte

	done chan struct{} // closed when the reader exits
	err  error         // reader's terminal error, valid after done
}

func dialWire(addr string, onResp func(tag int64, status int, body []byte, at time.Time)) (*wireConn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	w := &wireConn{c: c, onResp: onResp, done: make(chan struct{})}
	go w.readLoop()
	return w, nil
}

// send writes one burst. appendReqs appends the requests to dst and
// returns the tags in order.
func (w *wireConn) send(tags []int64, appendReqs func(dst []byte) []byte) error {
	w.mu.Lock()
	w.fifo = append(w.fifo, tags...)
	w.mu.Unlock()
	w.wbuf = appendReqs(w.wbuf[:0])
	_, err := w.c.Write(w.wbuf)
	return err
}

// inFlight reports requests written and not yet answered.
func (w *wireConn) inFlight() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.fifo) - w.head
}

func (w *wireConn) pop() (int64, bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.head == len(w.fifo) {
		return 0, false
	}
	tag := w.fifo[w.head]
	w.head++
	if w.head == len(w.fifo) {
		w.fifo, w.head = w.fifo[:0], 0
	}
	return tag, true
}

var errUnsolicited = errors.New("response with no request outstanding")

func (w *wireConn) readLoop() {
	defer close(w.done)
	br := bufio.NewReaderSize(w.c, 64<<10)
	var body []byte
	for {
		status, n, err := readHead(br)
		if err != nil {
			w.err = err
			return
		}
		if cap(body) < n {
			body = make([]byte, n)
		}
		body = body[:n]
		if _, err := io.ReadFull(br, body); err != nil {
			w.err = err
			return
		}
		at := time.Now()
		tag, ok := w.pop()
		if !ok {
			w.err = errUnsolicited
			return
		}
		w.onResp(tag, status, body, at)
	}
}

// readHead parses a response head and returns the status and body
// length. Only Content-Length framing is accepted: the program's server
// frames every reply that way.
func readHead(br *bufio.Reader) (status, length int, err error) {
	line, err := br.ReadSlice('\n')
	if err != nil {
		return 0, 0, err
	}
	f := bytes.Fields(line)
	if len(f) < 2 || !bytes.HasPrefix(f[0], []byte("HTTP/1.")) {
		return 0, 0, fmt.Errorf("bad status line %q", line)
	}
	if status, err = strconv.Atoi(string(f[1])); err != nil {
		return 0, 0, fmt.Errorf("bad status line %q", line)
	}
	length = -1
	for {
		line, err = br.ReadSlice('\n')
		if err != nil {
			return 0, 0, err
		}
		line = bytes.TrimRight(line, "\r\n")
		if len(line) == 0 {
			break
		}
		k, v, ok := bytes.Cut(line, []byte(":"))
		if !ok {
			continue
		}
		switch {
		case bytes.EqualFold(k, []byte("Content-Length")):
			if length, err = strconv.Atoi(string(bytes.TrimSpace(v))); err != nil {
				return 0, 0, fmt.Errorf("bad Content-Length %q", v)
			}
		case bytes.EqualFold(k, []byte("Transfer-Encoding")):
			return 0, 0, fmt.Errorf("unsupported Transfer-Encoding %q", v)
		}
	}
	if length < 0 {
		length = 0
	}
	return status, length, nil
}

// close shuts the connection and waits for the reader to exit.
func (w *wireConn) close() {
	w.c.Close()
	<-w.done
}
