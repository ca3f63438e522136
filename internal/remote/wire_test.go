package remote

import (
	"bytes"
	"encoding"
	"errors"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"

	"salus/internal/accel"
	"salus/internal/cryptoutil"
	"salus/internal/metrics"
	"salus/internal/rpc"
)

// wireMessage is the method set that puts a message on the binary wire:
// the rpc layer sends a type in its own binary form exactly when it has
// both methods.
type wireMessage[T any] interface {
	*T
	encoding.BinaryUnmarshaler
	AppendBinary([]byte) ([]byte, error)
}

// wireSamples holds one populated value of each binary wire message, with
// every field set, including the QoS and routing fields.
func wireSamples() []any {
	return []any{
		JobRequest{
			Kernel: "Conv", Params: [4]uint64{4, 4, 1, 1 << 63}, SealedInput: []byte{0xde, 0xad, 0xbe, 0xef},
			Tenant: "tenant-7", Class: "critical", DeadlineMillis: 1500, Key: "dataset-41",
		},
		JobResponse{SealedOutput: []byte("sealed-out"), Shard: "gw1", Spilled: true},
		BatchRequest{
			Kernel: "Conv",
			Jobs:   []BatchJob{{Params: [4]uint64{1, 2, 3, 4}, SealedInput: []byte{1, 2}}, {Params: [4]uint64{}, SealedInput: nil}},
			Tenant: "t", Class: "batch", DeadlineMillis: -1, Key: "k",
		},
		BatchResponse{
			Results: []BatchJobResult{{SealedOutput: []byte{9, 9, 9}}, {Error: "slot exceeds the buffer half"}},
			Shard:   "gw2", Spilled: false,
		},
	}
}

func appendWire(t testing.TB, v any) []byte {
	t.Helper()
	b, err := v.(interface{ AppendBinary([]byte) ([]byte, error) }).AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// checkWire decodes data as a T and checks the decoder's contract: no
// panic, allocation proportional to the input, no aliasing of the input,
// and — for anything accepted — a canonical round trip through AppendBinary
// to an equal value, with trailing bytes rejected.
func checkWire[T any, P wireMessage[T]](t *testing.T, data []byte) {
	src := append([]byte(nil), data...)
	var v T
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := P(&v).UnmarshalBinary(src)
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 16*uint64(len(data))+4096 {
		t.Fatalf("%T: decoding %d bytes allocated %d", v, len(data), grew)
	}
	if err != nil {
		return
	}
	for i := range src {
		src[i] ^= 0xff // the decoded value must not alias its input
	}
	enc, err := P(&v).AppendBinary(nil)
	if err != nil {
		t.Fatalf("%T: re-encode: %v", v, err)
	}
	if !bytes.Equal(enc, data) {
		t.Fatalf("%T: accepted input does not re-encode to itself (or the value aliased its input)", v)
	}
	var back T
	if err := P(&back).UnmarshalBinary(enc); err != nil || !reflect.DeepEqual(back, v) {
		t.Fatalf("%T: round trip: %v, equal %v", v, err, reflect.DeepEqual(back, v))
	}
	if err := P(new(T)).UnmarshalBinary(append(enc, 0)); err == nil {
		t.Fatalf("%T: accepted a trailing byte", v)
	}
}

// FuzzWireMessages throws arbitrary bytes at the four binary wire
// decoders. Each must never panic, must allocate O(len(input)) however
// large the lengths and counts it declares, must reject trailing junk, and
// must round-trip anything it accepts.
func FuzzWireMessages(f *testing.F) {
	for _, v := range wireSamples() {
		b := appendWire(f, v)
		f.Add(b)
		f.Add(b[:len(b)/2])   // truncated
		f.Add(append(b, 0x0)) // trailing byte
	}
	f.Add([]byte{})
	f.Add(appendWire(f, JobRequest{}))
	f.Add(appendWire(f, BatchResponse{}))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})                           // length or count past the end
	f.Add([]byte{0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff})               // batch: empty kernel, 4G jobs
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2})            // job response: bad spilled flag
	f.Add([]byte{0x00, 0xff, 0xff, 0xff, 0, 0, 0, 0, 0, 0, 0, 0x7}) // 16M results claimed, 9 bytes follow

	f.Fuzz(func(t *testing.T, data []byte) {
		checkWire[JobRequest](t, data)
		checkWire[JobResponse](t, data)
		checkWire[BatchRequest](t, data)
		checkWire[BatchResponse](t, data)
	})
}

// TestWireSamplesRoundTrip: every field, including the QoS and routing
// fields, survives the binary wire form.
func TestWireSamplesRoundTrip(t *testing.T) {
	for _, v := range wireSamples() {
		b := appendWire(t, v)
		back := reflect.New(reflect.TypeOf(v))
		if err := back.Interface().(encoding.BinaryUnmarshaler).UnmarshalBinary(b); err != nil {
			t.Fatalf("%T: %v", v, err)
		}
		if !reflect.DeepEqual(back.Elem().Interface(), v) {
			t.Errorf("%T: round trip = %+v, want %+v", v, back.Elem().Interface(), v)
		}
	}
}

// TestWireDecodersCopy pins the aliasing rule "binary decoders copy, like
// json.Unmarshal": a RunJob request's sealed input and a job response's
// sealed output stay intact after the frame they were decoded from is
// overwritten — the pooled rpc frame buffer is reused by the next request.
// It checks the decoders directly (the frame is overwritten
// deterministically) and then over the wire, where retained values must
// survive the frame buffers being recycled by later calls.
func TestWireDecodersCopy(t *testing.T) {
	input := bytes.Repeat([]byte{0x5a}, 64<<10) // well inside one pooled 256 KiB frame
	frame := appendWire(t, JobRequest{Kernel: "Conv", SealedInput: input})
	var req JobRequest
	if err := req.UnmarshalBinary(frame); err != nil {
		t.Fatal(err)
	}
	respFrame := appendWire(t, JobResponse{SealedOutput: input})
	var resp JobResponse
	if err := resp.UnmarshalBinary(respFrame); err != nil {
		t.Fatal(err)
	}
	clear(frame)
	clear(respFrame)
	if !bytes.Equal(req.SealedInput, input) || !bytes.Equal(resp.SealedOutput, input) {
		t.Fatal("decoded sealed bytes alias the overwritten frame")
	}

	// Over the wire: the handler retains every request's sealed input and
	// the client every response's sealed output, while later frames of the
	// same size recycle the pooled buffers.
	var retained [][]byte
	srv := rpc.NewServer()
	srv.Handle("Cluster.RunJob", rpc.Typed(func(in JobRequest) (JobResponse, error) {
		retained = append(retained, in.SealedInput) // handlers run one at a time here
		return JobResponse{SealedOutput: in.SealedInput}, nil
	}))
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := rpc.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var outs [][]byte
	for i := 0; i < 8; i++ {
		var out JobResponse
		if err := c.Call("Cluster.RunJob", JobRequest{Kernel: "Conv", SealedInput: bytes.Repeat([]byte{byte(i)}, 64<<10)}, &out); err != nil {
			t.Fatal(err)
		}
		outs = append(outs, out.SealedOutput)
	}
	for i := range outs {
		want := bytes.Repeat([]byte{byte(i)}, 64<<10)
		if !bytes.Equal(retained[i], want) || !bytes.Equal(outs[i], want) {
			t.Fatalf("call %d: retained sealed bytes changed after later frames reused the buffers", i)
		}
	}
}

// TestRunBatchWireBytes pins the wire cost of one 256 × 8 KiB sealed batch
// through a cluster gateway: the bytes the client sends and receives may
// exceed the sealed payload by at most 2% plus 16 KiB of framing. It is a
// byte count, so it cannot flake; base64 inside JSON costs about a third.
func TestRunBatchWireBytes(t *testing.T) {
	d := newClusterDeployment(t, 1, accel.Conv{})
	sess, err := DialCluster(d.addr, d.expectations())
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if err := sess.Attest(); err != nil {
		t.Fatal(err)
	}
	key := sessKey(sess)
	req := BatchRequest{Kernel: "Conv", Jobs: make([]BatchJob, 256)}
	var sealedBytes int
	for i := range req.Jobs {
		w := accel.GenConv(32, 32, 4, int64(i))
		if len(w.Input) != 8<<10 {
			t.Fatalf("input is %d bytes, want 8 KiB", len(w.Input))
		}
		sealed, err := cryptoutil.Seal(key, w.Input, []byte("job-input"))
		if err != nil {
			t.Fatal(err)
		}
		req.Jobs[i] = BatchJob{Params: w.Params, SealedInput: sealed}
		sealedBytes += len(sealed)
	}

	tx := metrics.Default().Counter("salus_rpc_client_tx_bytes_total")
	rx := metrics.Default().Counter("salus_rpc_client_rx_bytes_total")
	before := tx.Value() + rx.Value()
	var resp BatchResponse
	if err := sess.cn.call("Cluster.RunBatch", req, &resp); err != nil {
		t.Fatal(err)
	}
	wire := tx.Value() + rx.Value() - before

	if len(resp.Results) != len(req.Jobs) {
		t.Fatalf("%d results for %d jobs", len(resp.Results), len(req.Jobs))
	}
	for i, r := range resp.Results {
		if r.Error != "" {
			t.Fatalf("job %d: %s", i, r.Error)
		}
		sealedBytes += len(r.SealedOutput)
	}
	limit := uint64(float64(sealedBytes)*1.02) + 16<<10
	t.Logf("wire %d B for %d B of sealed payload (%.3fx)", wire, sealedBytes, float64(wire)/float64(sealedBytes))
	if wire > limit {
		t.Fatalf("batch moved %d wire bytes for %d sealed bytes, limit %d", wire, sealedBytes, limit)
	}
}

// TestOversizedResultNotRetried: a result too large for one frame reaches
// the session as a ServerError, so the redial policy neither re-dials nor
// re-runs the job, and the same connection serves the next call.
func TestOversizedResultNotRetried(t *testing.T) {
	var runs atomic.Int32
	srv := rpc.NewServer()
	srv.Handle("Cluster.RunJob", rpc.Typed(func(JobRequest) (JobResponse, error) {
		runs.Add(1)
		return JobResponse{SealedOutput: make([]byte, rpc.MaxFrame)}, nil
	}))
	srv.Handle("Cluster.Stats", rpc.Typed(func(struct{}) (ClusterStatsResponse, error) {
		return ClusterStatsResponse{}, nil
	}))
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cn, err := dialConn(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cn.close()

	var resp JobResponse
	err = cn.call("Cluster.RunJob", JobRequest{Kernel: "Conv"}, &resp)
	var se *rpc.ServerError
	if !errors.As(err, &se) {
		t.Fatalf("oversized result: err = %v, want *rpc.ServerError", err)
	}
	if n := runs.Load(); n != 1 {
		t.Errorf("handler ran %d times, want exactly once", n)
	}
	if err := cn.call("Cluster.Stats", struct{}{}, &ClusterStatsResponse{}); err != nil {
		t.Fatalf("call after the oversized result: %v", err)
	}
	if r := cn.redials(); r != 0 {
		t.Errorf("%d redials, want 0: the connection should have stayed up", r)
	}
}
