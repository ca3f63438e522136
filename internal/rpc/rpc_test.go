package rpc

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

type echoArgs struct {
	Msg string `json:"msg"`
	N   int    `json:"n"`
}

type echoReply struct {
	Msg string `json:"msg"`
	N   int    `json:"n"`
}

func newEchoServer(t testing.TB) (addr string, srv *Server) {
	t.Helper()
	srv = NewServer()
	srv.Handle("echo", Typed(func(in echoArgs) (echoReply, error) {
		return echoReply{Msg: in.Msg, N: in.N + 1}, nil
	}))
	srv.Handle("fail", Typed(func(in echoArgs) (echoReply, error) {
		return echoReply{}, errors.New("deliberate failure: " + in.Msg)
	}))
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return addr, srv
}

func TestCallRoundTrip(t *testing.T) {
	addr, _ := newEchoServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var out echoReply
	if err := c.Call("echo", echoArgs{Msg: "hello", N: 41}, &out); err != nil {
		t.Fatal(err)
	}
	if out.Msg != "hello" || out.N != 42 {
		t.Errorf("reply = %+v", out)
	}
}

func TestCallErrorPropagates(t *testing.T) {
	addr, _ := newEchoServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	err = c.Call("fail", echoArgs{Msg: "boom"}, nil)
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Errorf("err = %v", err)
	}
	// The connection survives a handler error.
	var out echoReply
	if err := c.Call("echo", echoArgs{N: 1}, &out); err != nil || out.N != 2 {
		t.Errorf("connection dead after error: %v %+v", err, out)
	}
}

func TestUnknownMethod(t *testing.T) {
	addr, _ := newEchoServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Call("nope", nil, nil); err == nil || !strings.Contains(err.Error(), "unknown method") {
		t.Errorf("err = %v", err)
	}
}

func TestBadParams(t *testing.T) {
	addr, _ := newEchoServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Call("echo", json.RawMessage(`"not an object"`), nil); err == nil {
		t.Error("accepted mistyped params")
	}
}

func TestConcurrentClients(t *testing.T) {
	addr, _ := newEchoServer(t)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := Dial(addr)
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			for j := 0; j < 20; j++ {
				var out echoReply
				msg := fmt.Sprintf("c%d-%d", i, j)
				if err := c.Call("echo", echoArgs{Msg: msg, N: j}, &out); err != nil {
					t.Error(err)
					return
				}
				if out.Msg != msg || out.N != j+1 {
					t.Errorf("reply %+v for %s/%d", out, msg, j)
					return
				}
			}
		}(i)
	}
	wg.Wait()
}

func TestSharedClientConcurrency(t *testing.T) {
	addr, _ := newEchoServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var out echoReply
			if err := c.Call("echo", echoArgs{N: i}, &out); err != nil {
				t.Error(err)
				return
			}
			if out.N != i+1 {
				t.Errorf("got %d want %d", out.N, i+1)
			}
		}(i)
	}
	wg.Wait()
}

func TestLargePayload(t *testing.T) {
	addr, _ := newEchoServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	big := strings.Repeat("x", 4<<20)
	var out echoReply
	if err := c.Call("echo", echoArgs{Msg: big}, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Msg) != len(big) {
		t.Errorf("len = %d", len(out.Msg))
	}
}

func TestCallAfterClose(t *testing.T) {
	addr, _ := newEchoServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
	if err := c.Call("echo", nil, nil); !errors.Is(err, ErrClosed) {
		t.Errorf("err = %v, want ErrClosed", err)
	}
}

func TestServerCloseUnblocksClients(t *testing.T) {
	addr, srv := newEchoServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	srv.Close()
	if err := c.Call("echo", echoArgs{}, nil); err == nil {
		t.Error("call succeeded on closed server")
	}
}

func TestFrameSizeLimit(t *testing.T) {
	if _, err := appendFrame(nil, 1, "echo", "", strings.Repeat("y", MaxFrame+16)); !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("err = %v", err)
	}
	// A call whose params exceed the limit never happens: nothing reaches
	// the wire, and the client keeps working.
	addr, _ := newEchoServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Call("echo", rawPayload(make([]byte, MaxFrame)), nil); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized call: err = %v, want ErrFrameTooLarge", err)
	}
	var out echoReply
	if err := c.Call("echo", echoArgs{N: 1}, &out); err != nil || out.N != 2 {
		t.Fatalf("client unusable after an oversized call: %v %+v", err, out)
	}
}

// hugeResult is a binary-form result one byte larger than a frame may be.
type hugeResult struct{}

func (hugeResult) AppendBinary(b []byte) ([]byte, error) {
	return append(b, make([]byte, MaxFrame+1)...), nil
}

func (*hugeResult) UnmarshalBinary([]byte) error { return nil }

// TestOversizedResultIsServerError: a handler result too large for a frame
// is answered with an error frame on the same connection. The caller gets a
// ServerError (never retried) instead of a dead connection (ErrBroken, which
// retry layers answer by re-running the call), and the connection serves
// the next call.
func TestOversizedResultIsServerError(t *testing.T) {
	addr, srv := newEchoServer(t)
	srv.Handle("huge", Typed(func(struct{}) (hugeResult, error) { return hugeResult{}, nil }))
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	err = c.Call("huge", struct{}{}, &hugeResult{})
	var se *ServerError
	if !errors.As(err, &se) || !strings.Contains(se.Msg, ErrFrameTooLarge.Error()) {
		t.Fatalf("oversized result: err = %v, want a ServerError naming the frame limit", err)
	}
	var out echoReply
	if err := c.Call("echo", echoArgs{N: 1}, &out); err != nil || out.N != 2 {
		t.Fatalf("connection dead after an oversized result: %v %+v", err, out)
	}
}

// pairMsg travels in binary form: value AppendBinary, pointer
// UnmarshalBinary. Its binary layout differs from its JSON, so a codec
// mismatch between the ends cannot go unnoticed.
type pairMsg struct{ A, B uint32 }

func (m pairMsg) AppendBinary(b []byte) ([]byte, error) {
	return binary.BigEndian.AppendUint32(binary.BigEndian.AppendUint32(b, m.A), m.B), nil
}

func (m *pairMsg) UnmarshalBinary(data []byte) error {
	if len(data) != 8 {
		return fmt.Errorf("pairMsg: %d bytes", len(data))
	}
	m.A, m.B = binary.BigEndian.Uint32(data), binary.BigEndian.Uint32(data[4:])
	return nil
}

// halfBinary has AppendBinary but no UnmarshalBinary, so it stays JSON.
type halfBinary struct{ A uint32 }

func (halfBinary) AppendBinary(b []byte) ([]byte, error) { return append(b, "not json"...), nil }

// TestPayloadCodecByType pins the codec rule: binary form exactly for types
// with both AppendBinary (value) and UnmarshalBinary (pointer), chosen the
// same way for params and results, for values and pointers; JSON for the
// rest.
func TestPayloadCodecByType(t *testing.T) {
	if !binaryForm(reflect.TypeOf(pairMsg{})) || !binaryForm(reflect.TypeOf(&pairMsg{})) {
		t.Error("pairMsg should travel in binary form")
	}
	if binaryForm(reflect.TypeOf(halfBinary{})) || binaryForm(reflect.TypeOf(echoArgs{})) {
		t.Error("types without both binary methods should travel as JSON")
	}
	b, err := appendPayload(nil, pairMsg{A: 1, B: 2})
	if err != nil || !bytes.Equal(b, []byte{0, 0, 0, 1, 0, 0, 0, 2}) {
		t.Errorf("pairMsg payload = %q, %v", b, err)
	}
	if b, err := appendPayload(nil, halfBinary{A: 3}); err != nil || string(b) != `{"A":3}` {
		t.Errorf("halfBinary payload = %q, %v", b, err)
	}

	addr, srv := newEchoServer(t)
	srv.Handle("swap", Typed(func(in pairMsg) (pairMsg, error) { return pairMsg{A: in.B, B: in.A}, nil }))
	srv.Handle("half", Typed(func(in halfBinary) (halfBinary, error) { return halfBinary{A: in.A + 1}, nil }))
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, params := range []any{pairMsg{A: 7, B: 9}, &pairMsg{A: 7, B: 9}} {
		var out pairMsg
		if err := c.Call("swap", params, &out); err != nil || out != (pairMsg{A: 9, B: 7}) {
			t.Errorf("swap(%T) = %+v, %v", params, out, err)
		}
	}
	var half halfBinary
	if err := c.Call("half", halfBinary{A: 1}, &half); err != nil || half.A != 2 {
		t.Errorf("half = %+v, %v", half, err)
	}
	// A binary payload the receiving type rejects is a bad-params error, not
	// a transport failure.
	if err := c.Call("swap", rawPayload("short"), nil); err == nil || !strings.Contains(err.Error(), "bad params") {
		t.Errorf("short binary params: err = %v", err)
	}
}

func TestCallTimeout(t *testing.T) {
	// A handler that never answers within the deadline.
	srv := NewServer()
	block := make(chan struct{})
	srv.Handle("hang", Typed(func(struct{}) (struct{}, error) {
		<-block
		return struct{}{}, nil
	}))
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { close(block); srv.Close() }()

	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetTimeout(100 * time.Millisecond)
	start := time.Now()
	if err := c.Call("hang", struct{}{}, nil); err == nil {
		t.Fatal("hung call returned nil")
	}
	if time.Since(start) > 3*time.Second {
		t.Error("timeout did not bound the call")
	}
}

func TestTimeoutAbandonsCallWithoutBreakingClient(t *testing.T) {
	// A timed-out call is abandoned, not fatal: its late reply is matched
	// by ID and discarded, and the connection keeps serving other calls.
	srv := NewServer()
	release := make(chan struct{})
	srv.Handle("hang", Typed(func(struct{}) (struct{}, error) {
		<-release
		return struct{}{}, nil
	}))
	srv.Handle("echo", Typed(func(in echoArgs) (echoReply, error) {
		return echoReply{Msg: in.Msg, N: in.N + 1}, nil
	}))
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetTimeout(100 * time.Millisecond)
	if err := c.Call("hang", struct{}{}, nil); !errors.Is(err, ErrTimeout) {
		t.Fatalf("timed-out call: err = %v, want ErrTimeout", err)
	}
	// The connection is still healthy for other methods.
	var out echoReply
	if err := c.Call("echo", echoArgs{N: 1}, &out); err != nil || out.N != 2 {
		t.Fatalf("client dead after timeout: %v %+v", err, out)
	}
	// Now let the hung handler answer: the late reply's ID matches the
	// abandoned call and must be dropped, not handed to the next Call and
	// not treated as stream desync.
	close(release)
	//lint:allow test-sleep generous margin for the late reply to arrive and be dropped; the assertions after it are the real check
	time.Sleep(50 * time.Millisecond)
	for i := 0; i < 4; i++ {
		if err := c.Call("echo", echoArgs{N: i}, &out); err != nil || out.N != i+1 {
			t.Fatalf("call %d after late reply: %v %+v", i, err, out)
		}
	}
}

func TestConcurrentCallsOverlapOnOneConnection(t *testing.T) {
	// Head-of-line blocking regression test: a slow handler must not delay
	// a fast call sharing the same client and connection.
	const slowFor = 400 * time.Millisecond
	srv := NewServer()
	srv.Handle("slow", Typed(func(struct{}) (struct{}, error) {
		//lint:allow test-sleep the slow handler IS the fixture: the head-of-line test needs a request that occupies real wall-clock time
		time.Sleep(slowFor)
		return struct{}{}, nil
	}))
	srv.Handle("echo", Typed(func(in echoArgs) (echoReply, error) {
		return echoReply{Msg: in.Msg, N: in.N + 1}, nil
	}))
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	slowDone := make(chan time.Time, 1)
	go func() {
		if err := c.Call("slow", struct{}{}, nil); err != nil {
			t.Error(err)
		}
		slowDone <- time.Now()
	}()
	//lint:allow test-sleep generous margin for the slow request to reach the server before the fast one is issued
	time.Sleep(30 * time.Millisecond) // the slow request is on the wire
	var out echoReply
	start := time.Now()
	if err := c.Call("echo", echoArgs{N: 7}, &out); err != nil || out.N != 8 {
		t.Fatalf("fast call: %v %+v", err, out)
	}
	fastDone := time.Now()
	if d := fastDone.Sub(start); d > slowFor/2 {
		t.Errorf("fast call took %v behind a %v handler: still head-of-line blocked", d, slowFor)
	}
	if slowAt := <-slowDone; !fastDone.Before(slowAt) {
		t.Error("fast call finished after the slow call: no overlap on the shared connection")
	}
}

func TestClientBrokenAfterIDMismatch(t *testing.T) {
	// A raw TCP server answering with the wrong response ID: framing-level
	// desync. The first call errors; the client must not reuse the stream.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		br := bufio.NewReader(conn)
		for {
			body, _, err := readPooledFrame(br)
			if err != nil {
				return
			}
			req, err := splitEnvelope(body)
			if err != nil {
				return
			}
			if _, err := conn.Write(testFrame(t, req.id+7, "", "", nil)); err != nil {
				return
			}
		}
	}()

	c, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Call("echo", echoArgs{}, nil); !errors.Is(err, ErrBroken) {
		t.Fatalf("mismatched-ID call: err = %v, want ErrBroken", err)
	}
	if err := c.Call("echo", echoArgs{}, nil); !errors.Is(err, ErrBroken) {
		t.Errorf("second call: err = %v, want fast ErrBroken", err)
	}
}

// rawReplyServer answers every request frame with reply(request id): a
// hand-built response stream for desync tests.
func rawReplyServer(t *testing.T, reply func(id uint64) []byte) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		br := bufio.NewReader(conn)
		for {
			body, _, err := readPooledFrame(br)
			if err != nil {
				return
			}
			req, err := splitEnvelope(body)
			if err != nil {
				return
			}
			if _, err := conn.Write(reply(req.id)); err != nil {
				return
			}
		}
	}()
	return ln.Addr().String()
}

// TestClientBrokenOnMalformedEnvelope: a response whose envelope does not
// fit its frame — a header cut short, a method or error length running
// past the body — or a request frame arriving where a response belongs is
// stream desync, so the client breaks exactly as for an undecodable frame.
func TestClientBrokenOnMalformedEnvelope(t *testing.T) {
	id := func(id uint64) []byte { return binary.BigEndian.AppendUint64(nil, id) }
	cases := map[string]func(uint64) []byte{
		"short header": func(n uint64) []byte { return lengthPrefixed(append(id(n), 0, 0, 0)) },
		"method past body": func(n uint64) []byte {
			return lengthPrefixed(append(id(n), 0, 9, 'x', 0, 0, 0, 0))
		},
		"error past body": func(n uint64) []byte {
			return lengthPrefixed(append(id(n), 0, 0, 0, 0, 0, 9, 'e'))
		},
		"request as response": func(n uint64) []byte { return testFrame(t, n, "echo", "", nil) },
	}
	for name, reply := range cases {
		t.Run(name, func(t *testing.T) {
			c, err := Dial(rawReplyServer(t, reply))
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			if err := c.Call("echo", echoArgs{}, nil); !errors.Is(err, ErrBroken) {
				t.Fatalf("err = %v, want ErrBroken", err)
			}
			if err := c.Call("echo", echoArgs{}, nil); !errors.Is(err, ErrBroken) {
				t.Errorf("second call: err = %v, want fast ErrBroken", err)
			}
		})
	}
}

// TestServerDropsMalformedEnvelope: a request frame whose envelope does
// not fit it, or that carries an error text, makes the server drop the
// connection — it answers nothing it cannot attribute.
func TestServerDropsMalformedEnvelope(t *testing.T) {
	addr, _ := newEchoServer(t)
	for name, frame := range map[string][]byte{
		"short header":        lengthPrefixed([]byte{0, 0, 0, 0, 0, 0, 0, 1, 0}),
		"method past body":    lengthPrefixed([]byte{0, 0, 0, 0, 0, 0, 0, 1, 1, 0, 'e', 0, 0, 0, 0}),
		"response as request": testFrame(t, 1, "", "boom", nil),
	} {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write(frame); err != nil {
			t.Fatal(err)
		}
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		if n, err := conn.Read(make([]byte, 64)); !errors.Is(err, io.EOF) {
			t.Errorf("%s: read %d bytes, err %v; want the server to close the connection", name, n, err)
		}
		conn.Close()
	}
}
