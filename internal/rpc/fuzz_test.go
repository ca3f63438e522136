package rpc

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"runtime"
	"testing"
)

// rawPayload is a binary-form message carrying its bytes verbatim, so the
// tests can put any payload into a frame.
type rawPayload []byte

func (p rawPayload) AppendBinary(b []byte) ([]byte, error) { return append(b, p...), nil }

func (p *rawPayload) UnmarshalBinary(data []byte) error {
	*p = append(rawPayload(nil), data...)
	return nil
}

// testFrame is one whole frame carrying payload verbatim.
func testFrame(t testing.TB, id uint64, method, errMsg string, payload []byte) []byte {
	t.Helper()
	b, err := appendFrame(nil, id, method, errMsg, rawPayload(payload))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// lengthPrefixed frames an arbitrary body, valid envelope or not.
func lengthPrefixed(body []byte) []byte {
	return append(binary.BigEndian.AppendUint32(nil, uint32(len(body))), body...)
}

// FuzzFrameRoundTrip throws arbitrary bytes at the frame and envelope
// decoders — truncated headers, truncated bodies, oversized and lying
// length prefixes, method and error lengths past the body — and asserts the
// decoders never panic, never trust a length over the bytes actually
// present, and are the exact inverse of the encoder: the envelope has one
// encoding, so every body they accept re-encodes byte for byte.
func FuzzFrameRoundTrip(f *testing.F) {
	f.Add(testFrame(f, 1, "Cluster.Boot", "", []byte(`{"nonce":"3q2+7w=="}`)))
	f.Add(lengthPrefixed(nil))                              // empty body
	f.Add([]byte{})                                         // empty stream
	f.Add([]byte{0x00, 0x00})                               // truncated length prefix
	f.Add([]byte{0x00, 0x00, 0x01, 0x00, 'a', 'b'})         // truncated body
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 'x'})              // length above MaxFrame
	f.Add([]byte{0x04, 0x00, 0x00, 0x00})                   // claims 64 MiB, delivers 0
	f.Add(append(testFrame(f, 2, "", "", nil), 0xde, 0xad)) // valid frame + trailing junk

	// Federation and sealed data-path frames, seeded so the corpus explores
	// the tier's frame shapes: JSON routing and hand-off payloads, and the
	// binary job and batch payloads with their raw sealed bytes.
	f.Add(testFrame(f, 3, "Federation.Route", "", []byte(`{"tenant":"tenant-7","key":"dataset-41"}`)))
	f.Add(testFrame(f, 3, "", "", []byte(`{"shard":"gw2","addr":"127.0.0.1:7012","epoch":5}`)))
	f.Add(testFrame(f, 4, "Cluster.RunJob", "", []byte("\x00\x00\x00\x04Conv\x00\x00\x00\x00\x00\x00\x00\x04\x00\x00\x00\x04\xde\xad\xbe\xef")))
	f.Add(testFrame(f, 4, "", "", []byte("\x00\x00\x00\x04\xde\xad\xbe\xef\x00\x00\x00\x03gw1\x01")))
	f.Add(testFrame(f, 5, "Cluster.RunBatch", "", []byte("\x00\x00\x00\x04Conv\x00\x00\x00\x02")))
	f.Add(testFrame(f, 6, "Federation.Handoff", "", []byte(`{"report":{"MRENCLAVE":[1,2,3],"Version":1,"Debug":false,"ReportData":[9,9],"MAC":"q83v"},"recipient_pub":"BAUG"}`)))
	f.Add(testFrame(f, 6, "", "", []byte(`{"sender_pub":"AAEC","sealed":"AAECAwQFBgc="}`)))
	f.Add(testFrame(f, 9, "", "cluster already booted under a different nonce", nil)) // error response

	// Malformed envelopes — a header shorter than its fixed fields, method
	// or error lengths running past the end of the body — are in
	// testdata/fuzz/FuzzFrameRoundTrip/envelope-*.

	f.Fuzz(func(t *testing.T, data []byte) {
		body, fb, err := readPooledFrame(bytes.NewReader(data))
		if err == nil {
			// The decoder may only hand back bytes that were actually on the
			// stream — a lying length prefix must fail, not fabricate.
			if len(body) > len(data)-4 {
				t.Fatalf("decoded %d bytes from a %d-byte stream", len(body), len(data))
			}
			if env, err := splitEnvelope(body); err == nil {
				if len(env.method)+len(env.errMsg)+len(env.payload)+envelopeHeader != len(body) {
					t.Fatal("envelope fields do not partition the body")
				}
				back := testFrame(t, env.id, env.method, env.errMsg, env.payload)
				if !bytes.Equal(back[4:], body) {
					t.Fatal("re-encoded envelope differs from the accepted body")
				}
			} else if !errors.Is(err, errEnvelope) {
				t.Fatalf("splitEnvelope: unexpected error %v", err)
			}
			releaseFrame(fb)
		}

		// Encoder -> decoder round trip with the fuzz bytes as method, error
		// text and payload: the envelope carries arbitrary bytes verbatim.
		method := data
		if len(method) > maxMethodLen {
			method = method[:maxMethodLen]
		}
		frame := testFrame(t, 7, string(method), string(data), data)
		body, fb, err = readPooledFrame(bytes.NewReader(frame))
		if err != nil {
			t.Fatalf("frame read of encoder output: %v", err)
		}
		defer releaseFrame(fb)
		env, err := splitEnvelope(body)
		if err != nil {
			t.Fatalf("splitEnvelope of encoder output: %v", err)
		}
		if env.id != 7 || env.method != string(method) || env.errMsg != string(data) || !bytes.Equal(env.payload, data) {
			t.Fatalf("envelope corrupted: id %d, %d-byte method, %d-byte error, %d-byte payload",
				env.id, len(env.method), len(env.errMsg), len(env.payload))
		}
	})
}

// TestReadRawFrameBoundedAlloc pins the fix for the hostile-length-prefix
// allocation: a peer claiming a maximum-size frame but delivering almost
// nothing must cost memory proportional to the bytes received, not the 64
// MiB promised.
func TestReadRawFrameBoundedAlloc(t *testing.T) {
	payload := make([]byte, 1024)
	hdr := make([]byte, 4)
	binary.BigEndian.PutUint32(hdr, MaxFrame) // claims 64 MiB
	stream := append(hdr, payload...)         // delivers 1 KiB

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < 8; i++ {
		if _, _, err := readPooledFrame(bytes.NewReader(stream)); !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("truncated max-size frame: err = %v, want unexpected EOF", err)
		}
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 32<<20 {
		t.Fatalf("8 truncated reads allocated %d bytes — decoder trusts the length prefix", grew)
	}

	// A frame right at the limit still works when the bytes really arrive.
	big := make([]byte, MaxFrame)
	binary.BigEndian.PutUint32(hdr, MaxFrame)
	got, fb, err := readPooledFrame(io.MultiReader(bytes.NewReader(hdr), bytes.NewReader(big)))
	if err != nil {
		t.Fatalf("full max-size frame: %v", err)
	}
	if fb != nil {
		t.Error("a max-size frame came from the chunk pool")
	}
	if len(got) != MaxFrame {
		t.Fatalf("decoded %d bytes, want %d", len(got), MaxFrame)
	}
}

// TestFederationFrameBoundedAlloc pins the bounded-alloc property for the
// federation tier's frames specifically: a peer opening what looks like a
// legitimate Federation.Handoff or routed Cluster.RunJob/RunBatch request —
// a real envelope and payload prefix with a max-size length claim — but
// delivering only the prefix must cost memory proportional to the
// delivered bytes. Hand-off grants and sealed job payloads are the frames
// an attacker would inflate, since gateways relay them between regions.
func TestFederationFrameBoundedAlloc(t *testing.T) {
	header := func(id uint64, method string) []byte {
		return testFrame(t, id, method, "", nil)[4:] // body only; the claim is added below
	}
	prefixes := [][]byte{
		append(header(6, "Federation.Handoff"), `{"report":{"MRENCLAVE":[`...),
		// Binary job payload: kernel, params, then a sealed-input length
		// claim far beyond the bytes that follow.
		append(header(4, "Cluster.RunJob"), "\x00\x00\x00\x04Conv"+string(make([]byte, 32))+"\x03\xff\xff\xff"...),
		// Binary batch payload: kernel, then a job-count claim.
		append(header(5, "Cluster.RunBatch"), "\x00\x00\x00\x04Conv\x00\xff\xff\xff"...),
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for _, p := range prefixes {
		hdr := make([]byte, 4)
		binary.BigEndian.PutUint32(hdr, MaxFrame) // claims 64 MiB
		stream := append(hdr, p...)               // delivers a few dozen bytes
		for i := 0; i < 8; i++ {
			if _, _, err := readPooledFrame(bytes.NewReader(stream)); !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Fatalf("truncated federation frame: err = %v, want unexpected EOF", err)
			}
		}
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 32<<20 {
		t.Fatalf("truncated federation frames allocated %d bytes — decoder trusts the length prefix", grew)
	}
}
