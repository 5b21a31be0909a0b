package worker

import (
	"bytes"
	"encoding/binary"
	"io"
	"reflect"
	"testing"

	"specsched/internal/config"
	"specsched/internal/stats"
)

// FuzzReadFrame feeds arbitrary bytes to the frame decoder. It must never
// panic, must return io.EOF only for empty input (the orderly-shutdown
// signal both sides test with ==), and every frame it accepts must come
// back unchanged through writeFrame and readFrame.
func FuzzReadFrame(f *testing.F) {
	cfg, err := config.Preset("SpecSched_4_Crit")
	if err != nil {
		f.Fatal(err)
	}
	for _, fr := range []frame{
		{Type: frameHello, Version: ProtocolVersion, PID: 4242},
		{Type: frameRun, ID: 7, Cell: &cellSpec{Config: cfg, ConfigDigest: 99, Workload: "gzip",
			SeedIdx: 1, Warmup: 500, Measure: 2000, Attempt: 2, TracePath: "gzip.trace", TraceDigest: 3, BeatEveryMS: 10}},
		{Type: frameCancel, ID: 7},
		{Type: frameBeat, ID: 7, Cycle: 123456},
		{Type: frameResult, ID: 7, Run: &stats.Run{Workload: "gzip", Config: cfg.Name, Cycles: 9, Committed: 8}},
		{Type: frameResult, ID: 8, Error: "bad trace", Kind: kindBadTrace},
	} {
		var buf bytes.Buffer
		if err := writeFrame(&buf, &fr); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	header := func(n uint32) []byte { return binary.BigEndian.AppendUint32(nil, n) }
	f.Add([]byte{0, 0})                              // truncated header
	f.Add(header(maxFrameBytes + 1))                 // length above the bound
	f.Add(append(header(100), `{"type":"beat"}`...)) // body shorter than its length
	f.Add(append(header(12), "not json at!"...))     // non-JSON body
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		var got frame
		err := readFrame(bytes.NewReader(data), &got)
		if (err == io.EOF) != (len(data) == 0) {
			t.Fatalf("readFrame on %d bytes returned %v; io.EOF is for empty input only", len(data), err)
		}
		// JSON escaping can grow a re-encoded body up to sixfold; past
		// this size the round trip could outgrow maxFrameBytes.
		if err != nil || len(data) > maxFrameBytes/8 {
			return
		}
		var buf bytes.Buffer
		if err := writeFrame(&buf, &got); err != nil {
			t.Fatalf("re-encoding a decoded frame: %v", err)
		}
		var again frame
		if err := readFrame(&buf, &again); err != nil {
			t.Fatalf("reading back a re-encoded frame: %v", err)
		}
		if !reflect.DeepEqual(got, again) {
			t.Fatalf("frame changed through writeFrame/readFrame:\n first  %+v\n second %+v", got, again)
		}
	})
}
