// Package rpc is the remote-procedure-call layer of the Salus software
// stack (§5.2, Figure 6). The paper leverages gRPC "for easy development
// and extension"; this reproduction implements the same role on the
// standard library: length-prefixed binary frames over TCP, a method-table
// server, and a multiplexing client.
//
// Each frame is a 4-byte big-endian body length and a body
//
//	[u64 id][u16 method len][method][u32 error len][error][payload]
//
// Requests carry a method, responses an optional error text. The payload
// codec is chosen by the message's Go type, with no knob and no
// negotiation: a type whose value has AppendBinary and whose pointer
// implements encoding.BinaryUnmarshaler travels in its own binary form (the
// sealed job and batch messages, so their ciphertext crosses raw, as
// protobuf bytes fields do under gRPC); every other type travels as JSON.
// Either way each payload is encoded once, straight into the frame, and
// decoded once; the envelope is split without reading the payload.
//
// Both ends are fully concurrent. The server dispatches every request on
// its own goroutine (responses are serialised by a per-connection write
// lock, so a slow handler never blocks a fast one). The client matches
// responses to calls through an ID → pending-call map, so any number of
// concurrent Calls share one connection without head-of-line blocking —
// a long-running job RPC does not delay a stats poll on the same socket.
//
// Security posture matches the paper's: RPC transports are *untrusted*.
// Everything sensitive that crosses them is independently protected —
// quotes are signed, keys are sealed to attested enclaves, metadata rides
// attested channels — so the RPC layer needs no TLS of its own, and the
// tests tamper with it freely.
package rpc

import (
	"bufio"
	"encoding"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"reflect"
	"sync"
	"time"

	"salus/internal/metrics"
)

// Handles into the process-wide metrics registry, acquired once so the
// per-frame cost is a single atomic op (see internal/metrics). Server and
// client are instrumented separately: a gateway process wants to tell its
// own serving load from the load it generates as a client of others.
var (
	mSrvInflight = metrics.Default().Gauge("salus_rpc_server_inflight")
	mSrvRequests = metrics.Default().Counter("salus_rpc_server_requests_total")
	mSrvErrors   = metrics.Default().Counter("salus_rpc_server_errors_total")
	mSrvRxBytes  = metrics.Default().Counter("salus_rpc_server_rx_bytes_total")
	mSrvTxBytes  = metrics.Default().Counter("salus_rpc_server_tx_bytes_total")
	mSrvHandle   = metrics.Default().Histogram("salus_rpc_server_handle_seconds")

	mCliInflight = metrics.Default().Gauge("salus_rpc_client_inflight")
	mCliCalls    = metrics.Default().Counter("salus_rpc_client_calls_total")
	mCliTimeouts = metrics.Default().Counter("salus_rpc_client_timeouts_total")
	mCliBroken   = metrics.Default().Counter("salus_rpc_client_broken_total")
	mCliRxBytes  = metrics.Default().Counter("salus_rpc_client_rx_bytes_total")
	mCliTxBytes  = metrics.Default().Counter("salus_rpc_client_tx_bytes_total")
	mCliCall     = metrics.Default().Histogram("salus_rpc_client_call_seconds")
)

// MaxFrame bounds a single message (a U200 bitstream plus headroom).
const MaxFrame = 64 << 20

// maxInFlightPerConn bounds how many handler goroutines one connection may
// have running at once; further requests queue in the read loop. It keeps
// a hostile or buggy peer from ballooning the server with one socket.
const maxInFlightPerConn = 64

// Errors.
var (
	ErrFrameTooLarge = errors.New("rpc: frame exceeds maximum size")
	ErrClosed        = errors.New("rpc: connection closed")
	// ErrBroken marks a client whose wire stream desynced (read failure,
	// undecodable frame, response ID matching no call): the connection
	// cannot be trusted to frame correctly any more, so every pending and
	// subsequent Call fails fast and the caller re-dials. It wraps
	// ErrClosed so retry layers treat it as a transport failure.
	ErrBroken = fmt.Errorf("rpc: transport desynced, client unusable: %w", ErrClosed)
	// ErrTimeout marks a call abandoned after the SetTimeout deadline. The
	// connection itself stays usable: the reply, if it arrives late, is
	// matched by ID and discarded.
	ErrTimeout = errors.New("rpc: call timed out")
)

// ServerError is an application-level failure reported by a handler. It is
// distinguishable from transport failures, so clients can retry the latter
// without re-running calls the server already rejected deliberately.
type ServerError struct {
	Msg string
}

// Error implements error.
func (e *ServerError) Error() string { return e.Msg }

// Envelope layout. Every frame body behind the 4-byte length prefix is
//
//	[u64 id][u16 method len][method][u32 error len][error][payload]
//
// all big-endian. A request carries a method and no error; a response
// carries no method and, on failure, the handler's error text. The payload
// is encoded exactly once, straight into the frame (see appendPayload), and
// the decoders split the envelope without reading it.
const (
	envelopeHeader = 8 + 2 + 4 // id + method len + error len, with empty strings
	maxMethodLen   = 1<<16 - 1
)

// errEnvelope marks a frame body whose header lengths do not fit it.
var errEnvelope = errors.New("rpc: malformed envelope")

// binaryAppender is encoding.BinaryAppender (Go 1.24), declared here so the
// module keeps building for its older minimum Go version.
type binaryAppender interface {
	AppendBinary(b []byte) ([]byte, error)
}

var (
	appenderType    = reflect.TypeFor[binaryAppender]()
	unmarshalerType = reflect.TypeFor[encoding.BinaryUnmarshaler]()
)

// binaryForm reports whether messages of type t (or of the type t points
// to) travel in their own binary form: the value implements AppendBinary
// and the pointer implements encoding.BinaryUnmarshaler. The codec is
// chosen by the Go type alone, so both ends of a method agree without
// negotiation; every other type travels as JSON.
func binaryForm(t reflect.Type) bool {
	if t == nil {
		return false
	}
	if t.Kind() == reflect.Pointer {
		t = t.Elem()
	}
	return t.Implements(appenderType) && reflect.PointerTo(t).Implements(unmarshalerType)
}

// appendPayload encodes v once, appending to b: binary-form types through
// AppendBinary, everything else through one JSON encoding pass. A nil v
// is an empty payload, which decodes to the zero value.
func appendPayload(b []byte, v any) ([]byte, error) {
	if v == nil {
		return b, nil
	}
	if binaryForm(reflect.TypeOf(v)) {
		return v.(binaryAppender).AppendBinary(b)
	}
	w := appendWriter{b: b}
	if err := json.NewEncoder(&w).Encode(v); err != nil {
		return b, err
	}
	return w.b[:len(w.b)-1], nil // drop Encode's trailing newline
}

// appendWriter lets a json.Encoder write straight into a frame buffer.
type appendWriter struct{ b []byte }

func (w *appendWriter) Write(p []byte) (int, error) {
	w.b = append(w.b, p...)
	return len(p), nil
}

// decodePayload decodes data into v (a pointer) in the form its type
// travels in. Both codecs copy what they keep, so v never aliases data.
func decodePayload(data []byte, v any) error {
	if u, ok := v.(encoding.BinaryUnmarshaler); ok && binaryForm(reflect.TypeOf(v)) {
		return u.UnmarshalBinary(data)
	}
	return json.Unmarshal(data, v)
}

// wbufPool recycles the buffers frames are encoded into. Buffers that
// ballooned past a few chunks (a bitstream upload, say) are dropped rather
// than pooled, so one huge frame does not pin 64 MiB for the life of the
// process.
var wbufPool = sync.Pool{New: func() any { return new(writeBuf) }}

type writeBuf struct{ b []byte }

const maxPooledWriteBuf = 4 * frameChunk

// putWriteBuf recycles wb with used (the grown frame) as its storage.
func putWriteBuf(wb *writeBuf, used []byte) {
	if cap(used) <= maxPooledWriteBuf {
		wb.b = used[:0]
		wbufPool.Put(wb)
	}
}

// appendFrame appends one whole frame to b: the length prefix, the
// envelope, and payload encoded once in its type's form. The result is the
// exact bytes to put on the wire. Nothing is written anywhere, so a failure
// (ErrFrameTooLarge, an encode error) never touches a connection.
func appendFrame(b []byte, id uint64, method, errMsg string, payload any) ([]byte, error) {
	if len(method) > maxMethodLen {
		return b, fmt.Errorf("rpc: method name of %d bytes exceeds %d", len(method), maxMethodLen)
	}
	start := len(b)
	b = append(b, 0, 0, 0, 0) // length prefix, patched below
	b = binary.BigEndian.AppendUint64(b, id)
	b = binary.BigEndian.AppendUint16(b, uint16(len(method)))
	b = append(b, method...)
	b = binary.BigEndian.AppendUint32(b, uint32(len(errMsg)))
	b = append(b, errMsg...)
	b, err := appendPayload(b, payload)
	if err != nil {
		return b[:start], fmt.Errorf("rpc: encode: %w", err)
	}
	body := len(b) - start - 4
	if body > MaxFrame {
		return b[:start], ErrFrameTooLarge
	}
	binary.BigEndian.PutUint32(b[start:], uint32(body))
	return b, nil
}

// envelope is one decoded frame header. method and errMsg are copies;
// payload aliases the frame body.
type envelope struct {
	id      uint64
	method  string
	errMsg  string
	payload []byte
}

// splitEnvelope decodes a frame body's header without reading the
// payload. A truncated header, or a method or error length running past
// the body, is errEnvelope.
func splitEnvelope(body []byte) (envelope, error) {
	if len(body) < envelopeHeader {
		return envelope{}, errEnvelope
	}
	env := envelope{id: binary.BigEndian.Uint64(body)}
	rest := body[8:]
	n := int(binary.BigEndian.Uint16(rest))
	rest = rest[2:]
	if n > len(rest)-4 {
		return envelope{}, errEnvelope
	}
	env.method, rest = string(rest[:n]), rest[n:]
	m := uint64(binary.BigEndian.Uint32(rest))
	rest = rest[4:]
	if m > uint64(len(rest)) {
		return envelope{}, errEnvelope
	}
	env.errMsg, env.payload = string(rest[:m]), rest[m:]
	return env, nil
}

// frameChunk bounds how much a frame read allocates up front. The length
// prefix is attacker-controlled: a hostile peer can claim a frame just
// under MaxFrame (64 MiB) and then hang up, so the buffer must grow with
// the bytes actually received, never with the bytes merely promised.
const frameChunk = 256 << 10

// frameBuf is one pooled read buffer, sized to a chunk. The pool keeps the
// per-frame body allocation off the hot receive paths (client readLoop,
// server serveConn) for every frame that fits a chunk — in this codebase
// that is everything but a bitstream upload.
type frameBuf struct {
	data []byte
}

var frameBufPool = sync.Pool{
	New: func() any { return &frameBuf{data: make([]byte, frameChunk)} },
}

// releaseFrame returns a pooled read buffer. Nil is fine (large frames and
// error paths carry no pooled buffer). After the call, any byte slice that
// aliased the frame body — including a handler's params — is invalid.
func releaseFrame(fb *frameBuf) {
	if fb != nil {
		frameBufPool.Put(fb)
	}
}

// readPooledFrame receives one length-prefixed body, into a recycled
// buffer for frames that fit one chunk. The returned frameBuf (nil for
// large frames) must be handed back via releaseFrame once nothing aliases
// the body any more. Any error here means the stream position is no longer
// trustworthy.
func readPooledFrame(r io.Reader) ([]byte, *frameBuf, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, nil, err
	}
	n := int(binary.BigEndian.Uint32(hdr[:]))
	if n > MaxFrame {
		return nil, nil, ErrFrameTooLarge
	}
	if n <= frameChunk {
		fb := frameBufPool.Get().(*frameBuf)
		body := fb.data[:n]
		if _, err := io.ReadFull(r, body); err != nil {
			releaseFrame(fb)
			return nil, nil, err
		}
		return body, fb, nil
	}
	body, err := readLargeBody(r, n)
	return body, nil, err
}

// readLargeBody grows the buffer (doubling, capped at n) as bytes arrive.
// The length prefix is attacker-controlled, so allocation must track the
// bytes actually received, never the bytes merely promised.
func readLargeBody(r io.Reader, n int) ([]byte, error) {
	body := make([]byte, 0, frameChunk)
	for len(body) < n {
		want := n - len(body)
		if want > frameChunk {
			want = frameChunk
		}
		off := len(body)
		if cap(body) < off+want {
			newCap := 2 * cap(body)
			if newCap < off+want {
				newCap = off + want
			}
			if newCap > n {
				newCap = n
			}
			grown := make([]byte, off, newCap)
			copy(grown, body)
			body = grown
		}
		body = body[:off+want]
		if _, err := io.ReadFull(r, body[off:]); err != nil {
			return nil, err
		}
	}
	return body, nil
}

// Handler serves one method: decode params, do work, return a result.
//
// params is the request payload in the form its type travels in (see
// binaryForm). The result is encoded the same way, once, straight into the
// response frame.
//
// Aliasing rule: params points into a pooled frame buffer that is recycled
// once the handler has returned and its result is encoded, so a handler
// must not retain params (or any subslice) past its return. Handlers built
// with Typed always satisfy this: json.Unmarshal and the binary decoders
// copy what they keep.
type Handler func(params []byte) (any, error)

// Server dispatches requests to registered handlers. Every request runs on
// its own goroutine; responses on a connection are serialised by a write
// lock and may arrive in any order (clients match them by ID). Handlers
// touching shared state must therefore synchronise themselves.
type Server struct {
	mu       sync.RWMutex
	handlers map[string]Handler

	lnMu     sync.Mutex
	listener net.Listener
	conns    map[net.Conn]struct{}
	closed   bool
	wg       sync.WaitGroup
}

// NewServer returns an empty server.
func NewServer() *Server {
	return &Server{
		handlers: make(map[string]Handler),
		conns:    make(map[net.Conn]struct{}),
	}
}

// Handle registers a method. Typed handlers are usually wrapped with
// Typed().
func (s *Server) Handle(method string, h Handler) {
	s.mu.Lock()
	s.handlers[method] = h
	s.mu.Unlock()
}

// Typed adapts a strongly typed handler func(In) (Out, error) to a Handler.
func Typed[In, Out any](fn func(In) (Out, error)) Handler {
	return func(params []byte) (any, error) {
		var in In
		if len(params) > 0 {
			if err := decodePayload(params, &in); err != nil {
				return nil, fmt.Errorf("rpc: bad params: %w", err)
			}
		}
		return fn(in)
	}
}

// Listen starts serving on addr and returns the bound address (useful with
// ":0"). Serving continues until Close.
func (s *Server) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.lnMu.Lock()
	if s.closed {
		s.lnMu.Unlock()
		ln.Close()
		return "", ErrClosed
	}
	s.listener = ln
	s.lnMu.Unlock()

	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			s.lnMu.Lock()
			if s.closed {
				s.lnMu.Unlock()
				conn.Close()
				return
			}
			s.conns[conn] = struct{}{}
			s.lnMu.Unlock()
			s.wg.Add(1)
			go func() {
				defer s.wg.Done()
				s.serveConn(conn)
			}()
		}
	}()
	return ln.Addr().String(), nil
}

func (s *Server) serveConn(conn net.Conn) {
	var handlers sync.WaitGroup
	defer func() {
		handlers.Wait()
		conn.Close()
		s.lnMu.Lock()
		delete(s.conns, conn)
		s.lnMu.Unlock()
	}()
	br := bufio.NewReader(conn)
	bw := bufio.NewWriter(conn)
	var wmu sync.Mutex // serialises response frames from concurrent handlers
	sem := make(chan struct{}, maxInFlightPerConn)
	for {
		body, fb, err := readPooledFrame(br)
		if err != nil {
			return
		}
		mSrvRxBytes.Add(uint64(4 + len(body)))
		env, err := splitEnvelope(body)
		if err != nil || env.errMsg != "" {
			// Undecodable, or a response where a request belongs: the
			// stream cannot be trusted to frame correctly any more.
			releaseFrame(fb)
			return
		}
		sem <- struct{}{}
		handlers.Add(1)
		mSrvInflight.Add(1)
		// env.payload aliases the pooled frame body, so the handler
		// goroutine owns fb and recycles it once the result is encoded
		// (handlers must not retain params — see Handler).
		go func(env envelope, fb *frameBuf) {
			defer func() {
				mSrvInflight.Add(-1)
				<-sem
				handlers.Done()
			}()
			mSrvRequests.Inc()
			start := time.Now()
			wb := wbufPool.Get().(*writeBuf)
			frame := s.respond(wb.b[:0], env)
			releaseFrame(fb) // the result is encoded; nothing aliases the body now
			mSrvHandle.Since(start)
			wmu.Lock()
			_, err := bw.Write(frame)
			if err == nil {
				err = bw.Flush()
			}
			wmu.Unlock()
			if err != nil {
				// The response stream is dead; tear the connection down so
				// the read loop stops feeding it.
				conn.Close()
			} else {
				mSrvTxBytes.Add(uint64(len(frame)))
			}
			putWriteBuf(wb, frame)
		}(env, fb)
	}
}

// respond runs the request's handler and appends its response frame to b.
// A result that cannot be sent — unencodable, or larger than MaxFrame —
// becomes an error frame on the same connection: nothing reached the wire,
// so the stream is intact and the caller gets a ServerError instead of a
// dead connection (and a retry layer's re-run of the call).
func (s *Server) respond(b []byte, env envelope) []byte {
	s.mu.RLock()
	h, ok := s.handlers[env.method]
	s.mu.RUnlock()
	var out any
	errMsg := "rpc: unknown method " + env.method
	if ok {
		var err error
		errMsg = ""
		if out, err = h(env.payload); err != nil {
			out, errMsg = nil, err.Error()
		}
	}
	frame, err := appendFrame(b, env.id, "", errMsg, out)
	if err != nil {
		errMsg = "rpc: result not sent: " + err.Error()
		frame, _ = appendFrame(b, env.id, "", errMsg, nil)
	}
	if errMsg != "" {
		mSrvErrors.Inc()
	}
	return frame
}

// Close stops the listener and all connections, waiting for handlers.
func (s *Server) Close() error {
	s.lnMu.Lock()
	s.closed = true
	if s.listener != nil {
		s.listener.Close()
	}
	for c := range s.conns {
		c.Close()
	}
	s.lnMu.Unlock()
	s.wg.Wait()
	return nil
}

// Client is a multiplexing connection to a Server. Safe for concurrent
// use: every Call registers in an ID → pending-call map and a single
// reader goroutine routes each response frame to its caller, so
// concurrent Calls overlap on the wire instead of queueing behind each
// other.
//
// A timed-out call (see SetTimeout) is abandoned, not fatal: its ID moves
// to an abandoned set and the late reply, if any, is discarded on arrival.
// The set is bounded (maxAbandoned, oldest evicted first) and cleared when
// the client dies, so a silent server cannot grow it without limit — one
// abandoned ID per timed-out call, forever, was exactly the slow leak this
// bound fixes. Only genuine stream desync — a read failure, an undecodable
// frame, or a response ID matching neither a pending nor an abandoned call
// — breaks the client; then every pending and subsequent Call fails fast
// with ErrBroken and the caller re-dials.
type Client struct {
	conn net.Conn

	wmu sync.Mutex // serialises request frames
	bw  *bufio.Writer

	mu         sync.Mutex
	pending    map[uint64]chan inbound
	abandoned  map[uint64]struct{}
	abandonedQ []uint64 // FIFO of abandoned IDs, oldest first (may hold stale entries)
	next       uint64
	timeout    time.Duration
	err        error // sticky: first fatal error (ErrBroken... or ErrClosed)
	closed     bool
}

// inbound is one response routed from readLoop to its caller. fb is the
// pooled frame buffer the envelope's payload aliases; the receiver recycles
// it after decoding.
type inbound struct {
	env envelope
	fb  *frameBuf
}

// maxAbandoned caps the abandoned-ID set. An eviction can in principle
// break the client later (the evicted ID's reply finally arrives and
// matches nothing), but a peer that answers a call after 1024 further
// calls have timed out is indistinguishable from a desynced one anyway.
const maxAbandoned = 1024

// SetTimeout bounds how long every subsequent Call waits for its response;
// zero restores blocking behaviour. Unlike a socket deadline, expiry
// abandons only the one call — the connection stays usable.
func (c *Client) SetTimeout(d time.Duration) {
	c.mu.Lock()
	c.timeout = d
	c.mu.Unlock()
}

// Dial connects to a server.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	c := &Client{
		conn:      conn,
		bw:        bufio.NewWriter(conn),
		pending:   make(map[uint64]chan inbound),
		abandoned: make(map[uint64]struct{}),
	}
	go c.readLoop()
	return c, nil
}

// readLoop is the client's single response reader: it routes every frame
// to its pending call by ID, discards late replies to abandoned calls, and
// breaks the client on anything it cannot account for.
func (c *Client) readLoop() {
	br := bufio.NewReader(c.conn)
	for {
		body, fb, err := readPooledFrame(br)
		if err != nil {
			c.fatal(fmt.Errorf("%w: read: %w", ErrBroken, err))
			return
		}
		mCliRxBytes.Add(uint64(4 + len(body)))
		env, err := splitEnvelope(body)
		if err == nil && env.method != "" {
			err = errors.New("request frame where a response belongs")
		}
		if err != nil {
			releaseFrame(fb)
			// The frame cannot be attributed to any call; its owner would
			// hang forever if we dropped it silently.
			c.fatal(fmt.Errorf("%w: decode response: %w", ErrBroken, err))
			return
		}
		c.mu.Lock()
		if ch, ok := c.pending[env.id]; ok {
			delete(c.pending, env.id)
			c.mu.Unlock()
			// Buffered; the caller may have raced to timeout but always
			// collects a delivered response, and recycles fb after decoding.
			ch <- inbound{env: env, fb: fb}
			continue
		}
		if _, ok := c.abandoned[env.id]; ok {
			delete(c.abandoned, env.id)
			c.mu.Unlock()
			releaseFrame(fb)
			continue
		}
		c.mu.Unlock()
		releaseFrame(fb)
		c.fatal(fmt.Errorf("%w: response id %d matches no call", ErrBroken, env.id))
		return
	}
}

// fatal records the client's first terminal error, closes the socket, and
// fails every pending call by closing its channel.
func (c *Client) fatal(err error) {
	c.mu.Lock()
	if c.err == nil {
		c.err = err
		if errors.Is(err, ErrBroken) {
			mCliBroken.Inc()
		}
	}
	for id, ch := range c.pending {
		delete(c.pending, id)
		close(ch)
	}
	// The read loop is done consulting the abandoned set once the client is
	// fatal, so drop it — otherwise IDs abandoned before the death would
	// linger for the life of the (unusable but maybe still referenced)
	// client.
	clear(c.abandoned)
	c.abandonedQ = nil
	c.mu.Unlock()
	c.conn.Close()
}

// Call invokes method with params and decodes the result into result
// (which may be nil to discard). Concurrent Calls share the connection.
func (c *Client) Call(method string, params any, result any) error {
	mCliCalls.Inc()
	mCliInflight.Add(1)
	start := time.Now()
	defer func() {
		mCliInflight.Add(-1)
		mCliCall.Since(start)
	}()

	// Encode the whole frame before touching the wire or the pending map:
	// an encode failure (ErrFrameTooLarge included) means the call simply
	// never happened, and the connection is untouched. The ID is patched in
	// once the call is registered.
	wb := wbufPool.Get().(*writeBuf)
	frame, err := appendFrame(wb.b[:0], 0, method, "", params)
	if err != nil {
		putWriteBuf(wb, frame)
		return err
	}

	c.mu.Lock()
	if c.err != nil {
		err := c.err
		c.mu.Unlock()
		putWriteBuf(wb, frame)
		return err
	}
	c.next++
	id := c.next
	ch := make(chan inbound, 1)
	c.pending[id] = ch
	timeout := c.timeout
	c.mu.Unlock()

	binary.BigEndian.PutUint64(frame[4:], id)
	c.wmu.Lock()
	_, err = c.bw.Write(frame)
	if err == nil {
		err = c.bw.Flush()
	}
	c.wmu.Unlock()
	nw := len(frame)
	putWriteBuf(wb, frame)
	if err != nil {
		ferr := fmt.Errorf("%w: write: %w", ErrBroken, err)
		c.fatal(ferr)
		return ferr
	}
	mCliTxBytes.Add(uint64(nw))

	var expired <-chan time.Time
	if timeout > 0 {
		timer := time.NewTimer(timeout)
		defer timer.Stop()
		expired = timer.C
	}
	select {
	case in, ok := <-ch:
		if !ok {
			return c.lastErr()
		}
		err := decodeResult(in.env, result)
		releaseFrame(in.fb)
		return err
	case <-expired:
		c.mu.Lock()
		if _, still := c.pending[id]; still {
			delete(c.pending, id)
			c.abandon(id)
			c.mu.Unlock()
			mCliTimeouts.Inc()
			return fmt.Errorf("%w: %s after %v", ErrTimeout, method, timeout)
		}
		c.mu.Unlock()
		// The response raced in (or the client broke) just as the timer
		// fired; the channel resolves immediately either way.
		in, ok := <-ch
		if !ok {
			return c.lastErr()
		}
		err := decodeResult(in.env, result)
		releaseFrame(in.fb)
		return err
	}
}

// abandon records a timed-out call ID, evicting the oldest entries past
// maxAbandoned so a silent server leaks a bounded set, not one ID per
// timeout forever. Caller holds c.mu.
func (c *Client) abandon(id uint64) {
	c.abandoned[id] = struct{}{}
	c.abandonedQ = append(c.abandonedQ, id)
	for len(c.abandoned) > maxAbandoned && len(c.abandonedQ) > 0 {
		old := c.abandonedQ[0]
		c.abandonedQ = c.abandonedQ[1:]
		delete(c.abandoned, old)
	}
	// The queue may accumulate stale entries for IDs whose late replies did
	// arrive (readLoop deletes from the map only); compact it before the
	// slice — and the dead capacity behind its sliced-off head — outgrows
	// the bound the map honours.
	if len(c.abandonedQ) > 4*maxAbandoned {
		kept := make([]uint64, 0, len(c.abandoned))
		for _, old := range c.abandonedQ {
			if _, ok := c.abandoned[old]; ok {
				kept = append(kept, old)
			}
		}
		c.abandonedQ = kept
	}
}

// decodeResult turns a response envelope into the Call's outcome, decoding
// the payload (once) into result.
func decodeResult(env envelope, result any) error {
	if env.errMsg != "" {
		return &ServerError{Msg: env.errMsg}
	}
	if result != nil && len(env.payload) > 0 {
		return decodePayload(env.payload, result)
	}
	return nil
}

func (c *Client) lastErr() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err != nil {
		return c.err
	}
	return ErrClosed
}

// Close shuts the connection down; pending calls fail with ErrClosed.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	if c.err == nil {
		c.err = ErrClosed
	}
	c.mu.Unlock()
	c.fatal(ErrClosed) // drains pending, closes the socket; keeps the first recorded error
	return nil
}
