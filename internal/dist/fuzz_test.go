package dist

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// roundTrip asserts that an accepted wire message is a decode/encode fixed
// point: decode → marshal → decode → marshal must reproduce the same bytes
// (the first marshal canonicalizes whitespace, e.g. inside RawMessage).
func roundTrip(t *testing.T, decoded any, decode func([]byte) (any, error)) {
	t.Helper()
	first, err := json.Marshal(decoded)
	if err != nil {
		t.Fatalf("re-encode accepted message: %v", err)
	}
	again, err := decode(first)
	if err != nil {
		t.Fatalf("re-decode of accepted message rejected: %v\n%s", err, first)
	}
	second, err := json.Marshal(again)
	if err != nil {
		t.Fatalf("second encode: %v", err)
	}
	if !bytes.Equal(first, second) {
		t.Fatalf("round trip is not a fixed point:\n%s\n%s", first, second)
	}
}

// FuzzShardWire holds every shard/lease wire decoder to the contract:
// never panic on arbitrary bytes, and anything accepted survives an
// encode/decode round trip.
func FuzzShardWire(f *testing.F) {
	f.Add([]byte(`{"worker":"w1"}`))
	f.Add([]byte(`{"status":"lease","shard":3,"fence":7,"benchmarks":["b1","b2"],"ttl_ms":10000,"config":{"seed":7,"scale":0.02,"runs":2}}`))
	f.Add([]byte(`{"status":"wait","ttl_ms":10000}`))
	f.Add([]byte(`{"status":"stop"}`))
	f.Add([]byte(`{"worker":"w1","shard":0,"fence":1}`))
	f.Add([]byte(`{"worker":"w1","shard":0,"fence":1,"checkpoint":{"version":3}}`))
	f.Add([]byte(`{"worker":"w1","shard":0,"fence":1,"error":"boom"}`))
	f.Add([]byte(`{"status":"ok"}`))
	f.Add([]byte(`{"status":"fenced","reason":"lease is not current"}`))
	f.Add([]byte(`{"worker":"../etc"}`))
	f.Add([]byte(`{"worker":"w1"}{"worker":"w2"}`))
	f.Add([]byte(`null`))
	f.Add([]byte(strings.Repeat("[", 1000)))

	f.Fuzz(func(t *testing.T, data []byte) {
		if lr, err := DecodeLeaseRequest(bytes.NewReader(data)); err == nil {
			roundTrip(t, lr, func(b []byte) (any, error) { return DecodeLeaseRequest(bytes.NewReader(b)) })
		}
		if lr, err := DecodeLeaseResponse(bytes.NewReader(data)); err == nil {
			roundTrip(t, lr, func(b []byte) (any, error) { return DecodeLeaseResponse(bytes.NewReader(b)) })
		}
		if hb, err := DecodeHeartbeatRequest(bytes.NewReader(data)); err == nil {
			roundTrip(t, hb, func(b []byte) (any, error) { return DecodeHeartbeatRequest(bytes.NewReader(b)) })
		}
		if up, err := DecodeUploadRequest(bytes.NewReader(data)); err == nil {
			roundTrip(t, up, func(b []byte) (any, error) { return DecodeUploadRequest(bytes.NewReader(b)) })
		}
		if fr, err := DecodeFailRequest(bytes.NewReader(data)); err == nil {
			roundTrip(t, fr, func(b []byte) (any, error) { return DecodeFailRequest(bytes.NewReader(b)) })
		}
		if a, err := DecodeAck(bytes.NewReader(data)); err == nil {
			roundTrip(t, a, func(b []byte) (any, error) { return DecodeAck(bytes.NewReader(b)) })
		}
	})
}

// FuzzMergeManifest holds the merge-manifest decoder to: never panic,
// every replayed record is valid, shard ids are unique, and the replayed
// set re-encodes and re-decodes to itself.
func FuzzMergeManifest(f *testing.F) {
	rec := testRecordJSON(0, 1)
	f.Add([]byte(rec + "\n" + testRecordJSON(1, 2) + "\n"))
	f.Add([]byte(rec + "\n" + rec[:len(rec)/2]))   // torn tail
	f.Add([]byte(rec + "\n" + rec + "\n"))         // duplicate shard
	f.Add([]byte("\n\n" + rec + "\n"))             // blank lines
	f.Add([]byte(`{"shard":-1,"fence":1}` + "\n")) // invalid record
	f.Add([]byte(`{"shard":0,"fence":0,"file":"x"}` + "\n"))
	f.Add([]byte(strings.Repeat("x", 4096)))
	f.Add([]byte(""))

	f.Fuzz(func(t *testing.T, data []byte) {
		recs, err := decodeManifest(bytes.NewReader(data))
		if err != nil {
			return
		}
		seen := map[int]bool{}
		for i := range recs {
			if err := recs[i].validate(); err != nil {
				t.Fatalf("replayed record %d is invalid: %v", i, err)
			}
			if seen[recs[i].Shard] {
				t.Fatalf("replayed duplicate shard %d", recs[i].Shard)
			}
			seen[recs[i].Shard] = true
		}
		// Re-encode and replay: a clean log must be a fixed point.
		var sb strings.Builder
		for i := range recs {
			line, err := json.Marshal(recs[i])
			if err != nil {
				t.Fatal(err)
			}
			sb.Write(line)
			sb.WriteByte('\n')
		}
		again, err := decodeManifest(strings.NewReader(sb.String()))
		if err != nil {
			t.Fatalf("re-decode of replayed records: %v", err)
		}
		if len(recs) == 0 {
			recs = nil // DeepEqual: empty and nil replay the same log
		}
		if !reflect.DeepEqual(recs, again) {
			t.Fatalf("manifest replay is not a fixed point:\n%+v\n%+v", recs, again)
		}
	})
}

func testRecordJSON(shard int, fence uint64) string {
	line, err := json.Marshal(testRecord(shard, fence))
	if err != nil {
		panic(err)
	}
	return string(line)
}
