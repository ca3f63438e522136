package remote

import (
	"encoding/binary"
	"errors"
	"slices"
)

// Binary wire form of the four sealed data-path messages. Giving a type
// AppendBinary and UnmarshalBinary is what makes internal/rpc carry it in
// binary instead of JSON, so sealed bytes cross the wire raw (as protobuf
// bytes fields do under the paper's gRPC) and are copied once per hop
// rather than base64-encoded and JSON-scanned. Every other gateway message
// stays JSON.
//
// Layout, all integers big-endian; a string or byte field is a u32 length
// and its bytes, a flag is one byte 0 or 1, and a list is a u32 count and
// its elements. A frame is at most rpc.MaxFrame (64 MiB), far inside what
// a u32 length can describe.
//
//	JobRequest:    kernel, params [4]u64, sealed_input, tenant, class, deadline_ms u64, key
//	JobResponse:   sealed_output, shard, spilled flag
//	BatchRequest:  kernel, jobs [params [4]u64, sealed_input], tenant, class, deadline_ms u64, key
//	BatchResponse: results [sealed_output, error], shard, spilled flag
//
// The encoding is canonical: a decoder accepts exactly the bytes its
// encoder produces for some value. Decoders bounds-check every read, check
// a list's declared count against the bytes left before allocating, reject
// trailing bytes, and copy everything they keep out of the input, which may
// be a pooled rpc frame (see the rpc Handler aliasing rule).

var errWire = errors.New("remote: malformed wire message")

// Minimum encoded sizes of list elements: what a declared count is checked
// against before anything is allocated.
const (
	minBatchJob    = 4*8 + 4 // params + empty sealed input
	minBatchResult = 4 + 4   // empty sealed output + empty error
)

// --- encoding -----------------------------------------------------------------

func appendField(b []byte, p []byte) []byte {
	return append(binary.BigEndian.AppendUint32(b, uint32(len(p))), p...)
}

func appendString(b []byte, s string) []byte {
	return append(binary.BigEndian.AppendUint32(b, uint32(len(s))), s...)
}

func appendParams(b []byte, p [4]uint64) []byte {
	for _, v := range p {
		b = binary.BigEndian.AppendUint64(b, v)
	}
	return b
}

func appendFlag(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// appendQoS encodes the QoS and routing fields JobRequest and BatchRequest
// share.
func appendQoS(b []byte, tenant, class string, deadlineMillis int64, key string) []byte {
	b = appendString(b, tenant)
	b = appendString(b, class)
	b = binary.BigEndian.AppendUint64(b, uint64(deadlineMillis))
	return appendString(b, key)
}

// AppendBinary implements the binary wire form (see package rpc).
func (r JobRequest) AppendBinary(b []byte) ([]byte, error) {
	b = slices.Grow(b, 4*4+len(r.Kernel)+4*8+len(r.SealedInput)+len(r.Tenant)+len(r.Class)+8+len(r.Key))
	b = appendString(b, r.Kernel)
	b = appendParams(b, r.Params)
	b = appendField(b, r.SealedInput)
	return appendQoS(b, r.Tenant, r.Class, r.DeadlineMillis, r.Key), nil
}

// AppendBinary implements the binary wire form (see package rpc).
func (r JobResponse) AppendBinary(b []byte) ([]byte, error) {
	b = slices.Grow(b, 4+len(r.SealedOutput)+4+len(r.Shard)+1)
	b = appendField(b, r.SealedOutput)
	b = appendString(b, r.Shard)
	return appendFlag(b, r.Spilled), nil
}

// AppendBinary implements the binary wire form (see package rpc).
func (r BatchRequest) AppendBinary(b []byte) ([]byte, error) {
	size := 4 + len(r.Kernel) + 4 + 4*3 + len(r.Tenant) + len(r.Class) + 8 + len(r.Key)
	for _, j := range r.Jobs {
		size += minBatchJob + len(j.SealedInput)
	}
	b = slices.Grow(b, size)
	b = appendString(b, r.Kernel)
	b = binary.BigEndian.AppendUint32(b, uint32(len(r.Jobs)))
	for _, j := range r.Jobs {
		b = appendParams(b, j.Params)
		b = appendField(b, j.SealedInput)
	}
	return appendQoS(b, r.Tenant, r.Class, r.DeadlineMillis, r.Key), nil
}

// AppendBinary implements the binary wire form (see package rpc).
func (r BatchResponse) AppendBinary(b []byte) ([]byte, error) {
	size := 4 + 4 + len(r.Shard) + 1
	for _, res := range r.Results {
		size += minBatchResult + len(res.SealedOutput) + len(res.Error)
	}
	b = slices.Grow(b, size)
	b = binary.BigEndian.AppendUint32(b, uint32(len(r.Results)))
	for _, res := range r.Results {
		b = appendField(b, res.SealedOutput)
		b = appendString(b, res.Error)
	}
	b = appendString(b, r.Shard)
	return appendFlag(b, r.Spilled), nil
}

// --- decoding -----------------------------------------------------------------

// wireReader decodes one message. The first failed read sticks in err and
// turns every later read into a zero value, so a decoder reads straight
// through and checks once at the end.
type wireReader struct {
	b   []byte
	err error
	// arena backs every byte field of the message: one allocation, sized by
	// the input on the first byte field, instead of one per sealed blob.
	arena []byte
}

func (r *wireReader) fail() {
	if r.err == nil {
		r.err = errWire
	}
	r.b = nil
}

func (r *wireReader) take(n uint64) []byte {
	if r.err != nil || n > uint64(len(r.b)) {
		r.fail()
		return nil
	}
	p := r.b[:n]
	r.b = r.b[n:]
	return p
}

func (r *wireReader) u32() uint32 {
	if p := r.take(4); p != nil {
		return binary.BigEndian.Uint32(p)
	}
	return 0
}

func (r *wireReader) u64() uint64 {
	if p := r.take(8); p != nil {
		return binary.BigEndian.Uint64(p)
	}
	return 0
}

func (r *wireReader) params() (p [4]uint64) {
	for i := range p {
		p[i] = r.u64()
	}
	return p
}

func (r *wireReader) str() string {
	return string(r.take(uint64(r.u32())))
}

// field returns a copy of a length-prefixed byte field (nil when empty).
// Copies are capacity-capped slices of the arena, so appending to one can
// never spill into the next.
func (r *wireReader) field() []byte {
	p := r.take(uint64(r.u32()))
	if len(p) == 0 {
		return nil
	}
	if r.arena == nil {
		r.arena = make([]byte, 0, len(p)+len(r.b))
	}
	start := len(r.arena)
	r.arena = append(r.arena, p...)
	return r.arena[start:len(r.arena):len(r.arena)]
}

func (r *wireReader) flag() bool {
	p := r.take(1)
	switch {
	case p == nil:
		return false
	case p[0] > 1:
		r.fail()
		return false
	}
	return p[0] == 1
}

// count reads a list length and checks that many elements of at least
// minSize bytes each can still follow, before the caller allocates for
// them.
func (r *wireReader) count(minSize int) int {
	n := uint64(r.u32())
	if r.err != nil || n*uint64(minSize) > uint64(len(r.b)) {
		r.fail()
		return 0
	}
	return int(n)
}

// done reports the first failure, or trailing bytes after the message.
func (r *wireReader) done() error {
	if r.err == nil && len(r.b) != 0 {
		r.err = errWire
	}
	return r.err
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler for the binary
// wire form; the result never aliases data.
func (r *JobRequest) UnmarshalBinary(data []byte) error {
	rd := wireReader{b: data}
	v := JobRequest{Kernel: rd.str(), Params: rd.params(), SealedInput: rd.field()}
	v.Tenant, v.Class, v.DeadlineMillis, v.Key = rd.str(), rd.str(), int64(rd.u64()), rd.str()
	if err := rd.done(); err != nil {
		return err
	}
	*r = v
	return nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler for the binary
// wire form; the result never aliases data.
func (r *JobResponse) UnmarshalBinary(data []byte) error {
	rd := wireReader{b: data}
	v := JobResponse{SealedOutput: rd.field(), Shard: rd.str(), Spilled: rd.flag()}
	if err := rd.done(); err != nil {
		return err
	}
	*r = v
	return nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler for the binary
// wire form; the result never aliases data.
func (r *BatchRequest) UnmarshalBinary(data []byte) error {
	rd := wireReader{b: data}
	v := BatchRequest{Kernel: rd.str()}
	if n := rd.count(minBatchJob); n > 0 {
		v.Jobs = make([]BatchJob, n)
		for i := range v.Jobs {
			v.Jobs[i] = BatchJob{Params: rd.params(), SealedInput: rd.field()}
		}
	}
	v.Tenant, v.Class, v.DeadlineMillis, v.Key = rd.str(), rd.str(), int64(rd.u64()), rd.str()
	if err := rd.done(); err != nil {
		return err
	}
	*r = v
	return nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler for the binary
// wire form; the result never aliases data.
func (r *BatchResponse) UnmarshalBinary(data []byte) error {
	rd := wireReader{b: data}
	var v BatchResponse
	if n := rd.count(minBatchResult); n > 0 {
		v.Results = make([]BatchJobResult, n)
		for i := range v.Results {
			v.Results[i] = BatchJobResult{SealedOutput: rd.field(), Error: rd.str()}
		}
	}
	v.Shard, v.Spilled = rd.str(), rd.flag()
	if err := rd.done(); err != nil {
		return err
	}
	*r = v
	return nil
}
