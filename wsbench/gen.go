package main

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"strconv"

	"repro/internal/echoservice"
	"repro/internal/msgbox"
	"repro/internal/soap"
	"repro/internal/wsa"
	"repro/internal/xmlsoap"
)

// Every op carries one identity, spelled twice: the WS-Addressing
// MessageID "urn:bench:<16 hex>" and a payload token "zqOP<16 hex>-" at
// the start of the echoed text. Templates are rendered once with a
// placeholder identity; an op's request is its template with the hex
// digits patched in place, so the program receives byte-exact
// generated envelopes without per-op serialization in the generator.
const (
	msgIDPrefix = "urn:bench:"
	tokenPrefix = "zqOP"
	hexDigits   = 16
	placeholder = "ffffffffffffffff"
)

// template is one request shape: the full HTTP request bytes with the
// places where an op's identity goes.
type template struct {
	class   string // "small", "large" or "foreign"
	text    []byte // payload text after the token
	req     []byte // full HTTP request (head + envelope)
	patches []int  // offsets of the placeholder hex digits in req
	skimOK  bool   // wsa.SkimEnvelope accepts the envelope
}

// splitmix64 is the seeded per-op mixer: op i of seed s always draws
// the same value, so a seed fixes every op's template.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// payloadText returns n seeded bytes from an alphabet that needs no XML
// escaping, so the payload appears verbatim in every hop's wire bytes.
func payloadText(seed uint64, n int) []byte {
	const alpha = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"
	b := make([]byte, n)
	x := seed
	for i := range b {
		x = splitmix64(x)
		b[i] = alpha[x%uint64(len(alpha))]
	}
	return b
}

// httpRequest frames an envelope as a pipelined HTTP/1.1 POST.
func httpRequest(host, path string, body []byte, extra string) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "POST %s HTTP/1.1\r\nHost: %s\r\nContent-Type: text/xml; charset=utf-8\r\n%sContent-Length: %d\r\n\r\n",
		path, host, extra, len(body))
	b.Write(body)
	return b.Bytes()
}

// finishTemplate locates the placeholder digits in the rendered request.
func finishTemplate(t *template, envelope []byte) error {
	var sk wsa.Skim
	t.skimOK = wsa.SkimEnvelope(envelope, &sk)
	for off := 0; ; {
		i := bytes.Index(t.req[off:], []byte(placeholder))
		if i < 0 {
			break
		}
		t.patches = append(t.patches, off+i)
		off += i + hexDigits
	}
	if len(t.patches) == 0 {
		return fmt.Errorf("template %s: no identity placeholder", t.class)
	}
	return nil
}

// appendOp appends op i's request bytes to dst.
func (t *template) appendOp(dst []byte, i int64) []byte {
	start := len(dst)
	dst = append(dst, t.req...)
	var raw [8]byte
	binary.BigEndian.PutUint64(raw[:], uint64(i))
	var h [hexDigits]byte
	hex.Encode(h[:], raw[:])
	for _, p := range t.patches {
		copy(dst[start+p:], h[:])
	}
	return dst
}

// rpcTemplate renders a SOAP-RPC echoMessage call to path.
func rpcTemplate(host, path, class string, text []byte) (*template, error) {
	t := &template{class: class, text: text}
	env := soap.RPCRequest(soap.V11, echoservice.EchoNS, echoservice.EchoOp,
		soap.Param{Name: "p", Value: tokenPrefix + placeholder + "-" + string(text)})
	body, err := wsa.AppendEnvelope(nil, env)
	if err != nil {
		return nil, err
	}
	t.req = httpRequest(host, path, body,
		"SOAPAction: \""+echoservice.EchoNS+":"+echoservice.EchoOp+"\"\r\n")
	return t, finishTemplate(t, body)
}

// foreignHeader is a header block the WS-Addressing skim does not know,
// which sends the envelope down the soap.Parse fallback.
const foreignHeader = `<tr:Trace xmlns:tr="urn:bench:trace">hop</tr:Trace>`

// msgTemplate renders a one-way WS-Addressing message to the logical
// service to, asking for the reply at replyTo.
func msgTemplate(host, path, to, replyTo, class string, text []byte) (*template, error) {
	t := &template{class: class, text: text}
	env := soap.New(soap.V11).SetBody(
		xmlsoap.NewText(echoservice.EchoNS, "echo", tokenPrefix+placeholder+"-"+string(text)))
	body, err := wsa.AppendRewritten(nil, env, &wsa.Headers{
		To:        to,
		Action:    echoservice.EchoNS + ":echo",
		MessageID: msgIDPrefix + placeholder,
		ReplyTo:   &wsa.EPR{Address: replyTo},
	})
	if err != nil {
		return nil, err
	}
	if class == "foreign" {
		i := bytes.Index(body, []byte("Header>"))
		if i < 0 {
			return nil, fmt.Errorf("msg template: no Header element in %q", body)
		}
		i += len("Header>")
		body = append(body[:i:i], append([]byte(foreignHeader), body[i:]...)...)
	}
	t.req = httpRequest(host, path, body, "")
	return t, finishTemplate(t, body)
}

// takeRequest renders one mailbox poll.
func takeRequest(host, path, boxID, token string, max int) ([]byte, error) {
	body, err := wsa.AppendEnvelope(nil, soap.RPCRequest(soap.V11, msgbox.ServiceNS, msgbox.OpTake,
		soap.Param{Name: "boxId", Value: boxID},
		soap.Param{Name: "token", Value: token},
		soap.Param{Name: "max", Value: strconv.Itoa(max)},
	))
	if err != nil {
		return nil, err
	}
	return httpRequest(host, path, body,
		"SOAPAction: \""+msgbox.ServiceNS+":"+msgbox.OpTake+"\"\r\n"), nil
}

// mix is a workload's seeded input mix: each op draws its template
// from the op index and the seed.
type mix struct {
	seed  uint64
	small []*template
	large []*template // drawn with probability largePct/100
	other []*template // drawn with probability otherPct/100
	// largePct and otherPct are the shares, in percent, of large and
	// non-canonical ("foreign") envelopes.
	largePct, otherPct uint64
}

// pick returns op i's template.
func (m *mix) pick(i int64) *template {
	x := splitmix64(m.seed ^ uint64(i)*0x9e3779b97f4a7c15)
	r := x % 100
	x = splitmix64(x)
	switch {
	case r < m.largePct && len(m.large) > 0:
		return m.large[x%uint64(len(m.large))]
	case r < m.largePct+m.otherPct && len(m.other) > 0:
		return m.other[x%uint64(len(m.other))]
	default:
		return m.small[x%uint64(len(m.small))]
	}
}

// parseOpHex decodes the 16 hex digits at b[0:16].
func parseOpHex(b []byte) (int64, bool) {
	var raw [8]byte
	if len(b) < hexDigits {
		return 0, false
	}
	if _, err := hex.Decode(raw[:], b[:hexDigits]); err != nil {
		return 0, false
	}
	return int64(binary.BigEndian.Uint64(raw[:])), true
}
