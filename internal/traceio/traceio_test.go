package traceio

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"io"
	"testing"

	"specsched/internal/trace"
	"specsched/internal/uop"
)

// streams under test: the statistical generator plus every exact-semantics
// kernel — together they cover every class, operand shape, and address
// pattern the codec must represent.
func testStreams(t *testing.T) map[string]func() uop.Stream {
	t.Helper()
	p, err := trace.ByName("gzip")
	if err != nil {
		t.Fatal(err)
	}
	mem, err := trace.ByName("libquantum")
	if err != nil {
		t.Fatal(err)
	}
	return map[string]func() uop.Stream{
		"profile-gzip":       func() uop.Stream { return trace.New(p) },
		"profile-libquantum": func() uop.Stream { return trace.New(mem) },
		"kernel-chase":       func() uop.Stream { return trace.NewPointerChase(7, 512) },
		"kernel-stream":      func() uop.Stream { return trace.NewStreamSum(16 << 10) },
		"kernel-stencil":     func() uop.Stream { return trace.NewStencil(16 << 10) },
	}
}

func drain(t *testing.T, s uop.Stream, n int) []uop.UOp {
	t.Helper()
	out := make([]uop.UOp, 0, n)
	var u uop.UOp
	for i := 0; i < n; i++ {
		if !s.NextInto(&u) {
			t.Fatalf("stream ended after %d of %d µ-ops", i, n)
		}
		out = append(out, u)
	}
	return out
}

// canonical maps a live µ-op to its wire-canonical form: the format
// carries Size for memory µ-ops only and Target for branches only (the
// timing model never reads either off those paths).
func canonical(u uop.UOp) uop.UOp {
	if !u.Class.IsMem() {
		u.Size = 0
	}
	if u.Class != uop.ClassBranch {
		u.Target = 0
	}
	return u
}

// TestRoundTrip records each stream and checks the decoded µ-ops are
// field-for-field identical to a twin of the live stream.
func TestRoundTrip(t *testing.T) {
	const n = 5000
	for name, mk := range testStreams(t) {
		var buf bytes.Buffer
		h, err := Record(&buf, mk(), n, "test:"+name, 42)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if h.Count != n || h.Generator != "test:"+name || h.WrongPathSeed != 42 || h.Version != Version {
			t.Fatalf("%s: bad header %+v", name, h)
		}
		want := drain(t, mk(), n)

		d, err := NewDecoder(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if d.Header() != h {
			t.Fatalf("%s: decoded header %+v != recorded %+v", name, d.Header(), h)
		}
		got := drain(t, d, n)
		for i := range want {
			want[i] = canonical(want[i])
			if want[i] != got[i] {
				t.Fatalf("%s: µ-op %d differs\nlive:   %+v\nreplay: %+v", name, i, want[i], got[i])
			}
		}
		var u uop.UOp
		if d.NextInto(&u) {
			t.Fatalf("%s: decoder produced more than %d µ-ops", name, n)
		}
		if err := d.Err(); err != nil {
			t.Fatalf("%s: clean decode reported error: %v", name, err)
		}
	}
}

// TestReRecordByteIdentity is the codec's determinism pin: decoding a trace
// and re-recording it (same count, same header metadata) must reproduce
// the source file byte for byte — the property the CI traces job checks on
// real files via cmd/tracedump.
func TestReRecordByteIdentity(t *testing.T) {
	const n = 4000
	for name, mk := range testStreams(t) {
		var first bytes.Buffer
		h, err := Record(&first, mk(), n, "test:"+name, 7)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		d, err := NewDecoder(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var second bytes.Buffer
		h2, err := Record(&second, d, h.Count, h.Generator, h.WrongPathSeed)
		if err != nil {
			t.Fatalf("%s: re-record: %v", name, err)
		}
		if h2 != h {
			t.Fatalf("%s: re-record header %+v != %+v", name, h2, h)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("%s: re-recorded trace differs from source (%d vs %d bytes)",
				name, first.Len(), second.Len())
		}
	}
}

// TestVerify exercises Verify on a good trace and on targeted corruptions
// of the decompressed payload (re-wrapped in a valid gzip container so the
// corruption reaches the codec, not the container CRC).
func TestVerify(t *testing.T) {
	var buf bytes.Buffer
	if _, err := Record(&buf, trace.NewStreamSum(8<<10), 2000, "test:verify", 1); err != nil {
		t.Fatal(err)
	}
	if _, err := Verify(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("clean trace failed verification: %v", err)
	}

	gz, err := gzip.NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	payload, err := io.ReadAll(gz)
	if err != nil {
		t.Fatal(err)
	}
	rewrap := func(p []byte) io.Reader {
		var out bytes.Buffer
		w := gzip.NewWriter(&out)
		w.Write(p)
		w.Close()
		return bytes.NewReader(out.Bytes())
	}

	for _, tc := range []struct {
		name   string
		mutate func([]byte) []byte
	}{
		{"flipped body byte (digest mismatch)", func(p []byte) []byte {
			q := append([]byte(nil), p...)
			q[len(q)-1] ^= 0xff
			return q
		}},
		{"truncated body", func(p []byte) []byte { return p[:len(p)-10] }},
		{"trailing garbage", func(p []byte) []byte { return append(append([]byte(nil), p...), 0xde, 0xad) }},
		{"bad magic", func(p []byte) []byte {
			q := append([]byte(nil), p...)
			q[0] = 'X'
			return q
		}},
		{"future version", func(p []byte) []byte {
			q := append([]byte(nil), p...)
			q[len(magic)] = Version + 1
			return q
		}},
	} {
		if _, err := Verify(rewrap(tc.mutate(payload))); err == nil {
			t.Errorf("%s: verification passed, want error", tc.name)
		}
	}

	if _, err := Verify(bytes.NewReader([]byte("not a gzip stream"))); err == nil {
		t.Error("non-gzip input: verification passed, want error")
	}
}

// TestShortStream pins the recording contract: a stream that ends before
// the requested count is an error, not a silently short trace.
func TestShortStream(t *testing.T) {
	var buf bytes.Buffer
	src, err := NewDecoder(func() io.Reader {
		var b bytes.Buffer
		if _, err := Record(&b, trace.NewStreamSum(8<<10), 100, "g", 0); err != nil {
			t.Fatal(err)
		}
		return bytes.NewReader(b.Bytes())
	}())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Record(&buf, src, 500, "g", 0); err == nil {
		t.Fatal("recording 500 µ-ops from a 100-µ-op stream succeeded")
	}
}

// TestReadInfo checks the header-only fast path.
func TestReadInfo(t *testing.T) {
	var buf bytes.Buffer
	h, err := Record(&buf, trace.NewPointerChase(3, 64), 300, "kernel:chase nodes=64 seed=3", 3)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ReadInfo(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got != h {
		t.Fatalf("ReadInfo = %+v, want %+v", got, h)
	}
}

// TestDecoderSteadyStateZeroAllocs is the decoder's allocation regression
// guard: once constructed, NextInto must decode µ-ops without allocating,
// so a trace-replayed core keeps the simulator's zero-alloc steady state.
func TestDecoderSteadyStateZeroAllocs(t *testing.T) {
	p, err := trace.ByName("libquantum")
	if err != nil {
		t.Fatal(err)
	}
	const n = 400000
	var buf bytes.Buffer
	if _, err := Record(&buf, trace.New(p), n, "test:allocs", 1); err != nil {
		t.Fatal(err)
	}
	d, err := NewDecoder(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var u uop.UOp
	// Warm past the first flate blocks so the decompressor's buffers exist.
	for i := 0; i < 50000; i++ {
		if !d.NextInto(&u) {
			t.Fatalf("trace ended during warmup at %d: %v", i, d.Err())
		}
	}
	avg := testing.AllocsPerRun(20, func() {
		for i := 0; i < 10000; i++ {
			if !d.NextInto(&u) {
				t.Fatalf("trace ended mid-measurement: %v", d.Err())
			}
		}
	})
	if avg != 0 {
		t.Errorf("%.1f allocations per 10000 decoded µ-ops, want 0", avg)
	}
}

// TestTamperedBodyRejectedAtOpen pins the replay-path digest guard:
// replay normally stops inside the recorded slack and never reaches the
// last record, so the digest must be verified when the trace is opened —
// a tampered body has to fail NewDecoder, not just a full Verify.
func TestTamperedBodyRejectedAtOpen(t *testing.T) {
	var buf bytes.Buffer
	if _, err := Record(&buf, trace.NewStreamSum(8<<10), 2000, "test:tamper", 1); err != nil {
		t.Fatal(err)
	}
	gz, err := gzip.NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	payload, err := io.ReadAll(gz)
	if err != nil {
		t.Fatal(err)
	}
	payload[len(payload)-1] ^= 0xff
	var rewrapped bytes.Buffer
	w := gzip.NewWriter(&rewrapped)
	w.Write(payload)
	w.Close()
	if _, err := NewDecoder(bytes.NewReader(rewrapped.Bytes())); err == nil {
		t.Fatal("NewDecoder accepted a trace with a tampered body")
	}
}

// TestRecordHugeClaimedCountNoPanic pins the no-over-allocation contract
// on the encode side: re-recording from a trace whose header claims an
// enormous µ-op count must fail cleanly when the stream runs dry, not
// pre-allocate (and panic or OOM) off the untrusted count.
func TestRecordHugeClaimedCountNoPanic(t *testing.T) {
	var evil bytes.Buffer
	w := gzip.NewWriter(&evil)
	w.Write(magic)
	w.Write([]byte{Version, 0, 0})                        // version, empty generator, wp seed
	w.Write(binary.AppendUvarint(nil, 1<<49))             // enormous count
	w.Write(binary.AppendUvarint(nil, uint64(fnvOffset))) // digest of the empty body
	w.Close()
	d, err := NewDecoder(bytes.NewReader(evil.Bytes()))
	if err != nil {
		t.Fatalf("header-only trace should open (body checks are lazy): %v", err)
	}
	var out bytes.Buffer
	if _, err := Record(&out, d, d.Header().Count, "g", 0); err == nil {
		t.Fatal("recording a stream with a fraudulent count succeeded")
	}
}
