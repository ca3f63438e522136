package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"salus/internal/channel"
)

// span is one public call the benchmark made into a layer, or the whole
// operation that caused it. Spans of one operation share Op; Parent names
// the causing span ("" for the operation itself).
type span struct {
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"` // since the log's origin
	End    int64  `json:"end_ns"`
	OK     bool   `json:"ok"`
}

// spanLog keeps spans in memory until the run ends. A nil *spanLog
// records nothing, which is how untraced runs pay no tracing cost.
type spanLog struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newSpanLog(origin time.Time) *spanLog { return &spanLog{origin: origin} }

func (l *spanLog) add(op int, name, parent string, start, end time.Time, ok bool) {
	if l == nil {
		return
	}
	s := span{Op: op, Name: name, Parent: parent,
		Start: int64(start.Sub(l.origin)), End: int64(end.Sub(l.origin)), OK: ok}
	l.mu.Lock()
	l.spans = append(l.spans, s)
	l.mu.Unlock()
}

// frameEvent is one frame a shell carried, seen by the pass-through tap.
type frameEvent struct {
	At    int64  `json:"at_ns"` // since the tap's origin
	Dir   string `json:"dir"`   // "load", "req" or "resp"
	Type  string `json:"type"`
	Bytes int    `json:"bytes"`
}

// frameTap is a shell.Interceptor that changes nothing: it records every
// bitstream load and host<->CL frame so per-transaction counts can be
// split by channel message type.
type frameTap struct {
	origin time.Time
	mu     sync.Mutex
	events []frameEvent
}

func newFrameTap(origin time.Time) *frameTap { return &frameTap{origin: origin} }

func (t *frameTap) note(dir string, frame []byte) {
	e := frameEvent{At: int64(time.Since(t.origin)), Dir: dir, Type: msgName(channel.MsgType(frame)), Bytes: len(frame)}
	if dir == "load" {
		e.Type = "bitstream"
	}
	t.mu.Lock()
	t.events = append(t.events, e)
	t.mu.Unlock()
}

// OnLoad implements shell.Interceptor.
func (t *frameTap) OnLoad(data []byte) []byte { t.note("load", data); return data }

// OnRequest implements shell.Interceptor.
func (t *frameTap) OnRequest(req []byte) []byte { t.note("req", req); return req }

// OnResponse implements shell.Interceptor.
func (t *frameTap) OnResponse(resp []byte) []byte { t.note("resp", resp); return resp }

// since returns the events recorded at or after the given instant.
func (t *frameTap) since(from time.Time) []frameEvent {
	cut := int64(from.Sub(t.origin))
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []frameEvent
	for _, e := range t.events {
		if e.At >= cut {
			out = append(out, e)
		}
	}
	return out
}

// msgNames labels channel.MsgType tags in metric names and span files.
var msgNames = map[byte]string{
	channel.MsgAttestReq:          "attest_req",
	channel.MsgAttestResp:         "attest_resp",
	channel.MsgSecureReg:          "secure_reg",
	channel.MsgSecureRegResp:      "secure_reg_resp",
	channel.MsgDirectReg:          "direct_reg",
	channel.MsgDirectResp:         "direct_resp",
	channel.MsgMemWrite:           "mem_write",
	channel.MsgMemRead:            "mem_read",
	channel.MsgMemData:            "mem_data",
	channel.MsgRekey:              "rekey",
	channel.MsgRekeyResp:          "rekey_resp",
	channel.MsgSecureRegBatch:     "secure_reg_batch",
	channel.MsgSecureRegBatchResp: "secure_reg_batch_resp",
	channel.MsgError:              "error",
}

func msgName(tag byte) string {
	if n, ok := msgNames[tag]; ok {
		return n
	}
	return fmt.Sprintf("type_%#02x", tag)
}

// writeTrace writes the spans and frame events of a traced run as JSON
// lines to dir/spans-<workload>-seed<seed>.jsonl and returns the path.
func writeTrace(dir, workload string, seed int64, spans *spanLog, tap *frameTap) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.jsonl", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	spans.mu.Lock()
	for _, s := range spans.spans {
		if err := enc.Encode(struct {
			Kind string `json:"kind"`
			span
		}{"span", s}); err != nil {
			spans.mu.Unlock()
			f.Close()
			return "", err
		}
	}
	spans.mu.Unlock()
	tap.mu.Lock()
	for _, e := range tap.events {
		if err := enc.Encode(struct {
			Kind string `json:"kind"`
			frameEvent
		}{"frame", e}); err != nil {
			tap.mu.Unlock()
			f.Close()
			return "", err
		}
	}
	tap.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
