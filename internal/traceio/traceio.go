// Package traceio records and replays dynamic µ-op streams as compact,
// versioned binary trace files — the on-ramp for externally captured
// instruction streams (the paper's evaluation is defined over recorded
// SPEC traces; see DESIGN.md §9 for the substitution story).
//
// A trace is a gzip stream whose decompressed payload is
//
//	magic "SSCHTRC\x00" | header | body
//
// The header is self-describing: format version, a generator fingerprint
// naming what produced the stream, the wrong-path RNG seed the recording
// workload would have used (so replay reproduces wrong-path fetch
// bit-identically), the µ-op count, and an FNV-64a digest of the body
// bytes. The body encodes one record per µ-op: a flags byte (class +
// presence bits) followed by varint-encoded fields, with sequence numbers,
// PCs, and effective addresses delta-encoded against the previous µ-op —
// synthetic and real instruction streams alike are locally correlated, so
// deltas keep most records in the 3-6 byte range before gzip.
//
// The contract is bit-identity: replaying a recorded trace through the
// core must produce a stats.Run identical to generating the stream live
// (asserted by the differential suite), and re-recording a decoded trace
// must reproduce the source file byte for byte (the encoding has no
// timestamps or other nondeterminism). The wire format canonicalizes
// fields the timing model never consumes: Size is carried for memory
// µ-ops only and Target for branches only; on every other class they
// replay as zero.
package traceio

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"path/filepath"
	"strings"

	"specsched/internal/uop"
)

// magic identifies a specsched µ-op trace; it is the first thing in the
// decompressed payload so a wrong file type fails immediately with a
// useful error instead of a varint parse failure.
var magic = []byte("SSCHTRC\x00")

// Version is the current trace format version. Decoders accept only
// versions they know (currently: exactly this one); incompatible layout
// changes must bump it. See DESIGN.md §9 for the versioning policy.
const Version = 1

// maxGeneratorLen bounds the header's generator-fingerprint string so a
// corrupt or hostile length prefix cannot drive a large allocation.
const maxGeneratorLen = 4096

// FNV-64a parameters; the body digest is plain FNV-64a folded byte by
// byte, cheap enough to compute inline on both the encode and decode path.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// WorkloadName derives the workload name a trace file is addressed by:
// the file stem ("corpus/mcf.trace" → "mcf"). The sweep layer and the
// public façade both name trace workloads through this one convention.
func WorkloadName(path string) string {
	base := filepath.Base(path)
	return strings.TrimSuffix(base, filepath.Ext(base))
}

// Header is the self-describing front matter of a trace.
type Header struct {
	// Version is the format version the trace was written with.
	Version int
	// Generator fingerprints what produced the stream (e.g.
	// "profile:gzip seed=1001"). Re-recording a trace preserves it, so
	// provenance survives round trips.
	Generator string
	// WrongPathSeed seeds the wrong-path filler generator at replay;
	// recording captures the seed the live workload would have used, which
	// is what makes replayed statistics bit-identical to live ones.
	WrongPathSeed uint64
	// Count is the number of µ-ops in the body.
	Count int64
	// Digest is the FNV-64a digest of the (uncompressed) body bytes.
	Digest uint64
}

// flags-byte layout: low four bits carry the µ-op class, the high bits the
// presence of optional fields.
const (
	flagClassMask = 0x0f
	flagTaken     = 1 << 4
	flagSrc1      = 1 << 5
	flagSrc2      = 1 << 6
	flagDest      = 1 << 7
)

// zigzag maps signed deltas to unsigned varint-friendly space.
func zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

// unzigzag is zigzag's inverse.
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// encoder tracks the delta state shared by consecutive records.
type encState struct {
	seq  int64
	pc   uint64
	addr uint64
}

// appendUOp encodes one µ-op onto buf. It rejects µ-ops the wire format
// cannot represent (wrong-path markers, out-of-range registers).
func appendUOp(buf []byte, u *uop.UOp, st *encState) ([]byte, error) {
	if err := u.Validate(); err != nil {
		return buf, fmt.Errorf("traceio: unencodable µ-op: %w", err)
	}
	if u.WrongPath {
		return buf, fmt.Errorf("traceio: refusing to record wrong-path µ-op %d (wrong-path fetch is regenerated at replay from the recorded seed)", u.Seq)
	}
	flags := byte(u.Class) & flagClassMask
	if u.Taken {
		flags |= flagTaken
	}
	if u.Src1 != uop.RegNone {
		flags |= flagSrc1
	}
	if u.Src2 != uop.RegNone {
		flags |= flagSrc2
	}
	if u.Dest != uop.RegNone {
		flags |= flagDest
	}
	buf = append(buf, flags)
	buf = binary.AppendUvarint(buf, zigzag(u.Seq-st.seq))
	buf = binary.AppendUvarint(buf, zigzag(int64(u.PC-st.pc)))
	st.seq, st.pc = u.Seq, u.PC
	if u.Src1 != uop.RegNone {
		buf = append(buf, byte(u.Src1))
	}
	if u.Src2 != uop.RegNone {
		buf = append(buf, byte(u.Src2))
	}
	if u.Dest != uop.RegNone {
		buf = append(buf, byte(u.Dest))
	}
	if u.Class.IsMem() {
		buf = binary.AppendUvarint(buf, zigzag(int64(u.Addr-st.addr)))
		buf = append(buf, u.Size)
		st.addr = u.Addr
	}
	if u.Class == uop.ClassBranch {
		buf = binary.AppendUvarint(buf, zigzag(int64(u.Target-u.PC)))
	}
	return buf, nil
}

// Record drains exactly n µ-ops from src and writes a complete trace to w.
// The body is staged in memory first — the header carries the µ-op count
// and body digest, both unknown until the stream has been drained — so
// Record's memory footprint is proportional to the encoded body (a few
// bytes per µ-op). A stream that ends before n µ-ops is an error: a trace
// must replay the window it claims to hold.
func Record(w io.Writer, src uop.Stream, n int64, generator string, wrongPathSeed uint64) (Header, error) {
	if n <= 0 {
		return Header{}, fmt.Errorf("traceio: non-positive µ-op count %d", n)
	}
	if len(generator) > maxGeneratorLen {
		return Header{}, fmt.Errorf("traceio: generator fingerprint longer than %d bytes", maxGeneratorLen)
	}
	var (
		// Capacity is a hint only, and n can come from an untrusted trace
		// header (re-recording): cap the pre-allocation and let append
		// grow with the data that actually arrives.
		body = make([]byte, 0, min(6*n, 1<<20))
		st   encState
		u    uop.UOp
		err  error
	)
	for i := int64(0); i < n; i++ {
		if !src.NextInto(&u) {
			return Header{}, fmt.Errorf("traceio: stream ended after %d of %d µ-ops", i, n)
		}
		if body, err = appendUOp(body, &u, &st); err != nil {
			return Header{}, err
		}
	}
	digest := uint64(fnvOffset)
	for _, b := range body {
		digest = (digest ^ uint64(b)) * fnvPrime
	}
	h := Header{
		Version:       Version,
		Generator:     generator,
		WrongPathSeed: wrongPathSeed,
		Count:         n,
		Digest:        digest,
	}

	gz := gzip.NewWriter(w)
	var head []byte
	head = append(head, magic...)
	head = binary.AppendUvarint(head, Version)
	head = binary.AppendUvarint(head, uint64(len(generator)))
	head = append(head, generator...)
	head = binary.AppendUvarint(head, wrongPathSeed)
	head = binary.AppendUvarint(head, uint64(n))
	head = binary.AppendUvarint(head, digest)
	if _, err := gz.Write(head); err != nil {
		return h, fmt.Errorf("traceio: %w", err)
	}
	if _, err := gz.Write(body); err != nil {
		return h, fmt.Errorf("traceio: %w", err)
	}
	if err := gz.Close(); err != nil {
		return h, fmt.Errorf("traceio: %w", err)
	}
	return h, nil
}

// Decoder streams µ-ops out of a recorded trace. It implements uop.Stream;
// the NextInto steady state allocates nothing, so a replayed core keeps
// the simulator's zero-alloc property. To guarantee that, NewDecoder decompresses the container once up front (streaming
// gzip would allocate at flate block boundaries) — memory is proportional
// to the decoded body, a few bytes per µ-op, matching the encoder — and
// verifies the body digest right there: replay normally stops inside the
// recorded slack and never reaches the last record, so an end-of-decode
// check would let a tampered body replay silently. Digest mismatches
// therefore fail construction, before a single µ-op is produced.
//
// NextInto returns false at the end of the trace — after Count µ-ops have
// been decoded and the container checked for trailing garbage — or on a
// malformed record. Err distinguishes the two: it is nil after a clean,
// complete decode and carries the corruption otherwise. Malformed input
// of any kind (bad header, truncated body, corrupt varints, digest
// mismatch) produces an error, never a panic, and never an allocation
// sized by untrusted header fields.
type Decoder struct {
	payload []byte // decompressed body (records only; the header is parsed off the stream)
	pos     int
	h       Header
	st      encState
	read    int64
	done    bool
	err     error
}

// NewDecoder opens a trace, validates its header, decompresses the body,
// and verifies the body digest against the header. Structural corruption
// of individual records surfaces later, from NextInto/Err.
func NewDecoder(r io.Reader) (*Decoder, error) {
	gz, err := gzip.NewReader(r)
	if err != nil {
		return nil, fmt.Errorf("traceio: not a trace (gzip container): %w", err)
	}
	br := bufio.NewReader(gz)
	h, err := readHeader(br)
	if err != nil {
		return nil, err
	}
	body, err := io.ReadAll(br)
	if err != nil {
		return nil, fmt.Errorf("traceio: corrupt container: %w", err)
	}
	digest := uint64(fnvOffset)
	for _, b := range body {
		digest = (digest ^ uint64(b)) * fnvPrime
	}
	if digest != h.Digest {
		return nil, fmt.Errorf("traceio: body digest mismatch (header %#016x, body %#016x)", h.Digest, digest)
	}
	return &Decoder{payload: body, h: h}, nil
}

// Clone returns an independent decoder over the same decompressed,
// digest-verified body, reset to the first µ-op — the cheap way to replay
// one loaded trace many times (one decoder per sweep cell) without
// re-reading or re-inflating the file. The body slice is shared and
// read-only; all mutable decode state is per-decoder.
func (d *Decoder) Clone() *Decoder {
	return &Decoder{payload: d.payload, h: d.h}
}

// headUvarint reads one header varint off the stream (not digest-folded:
// the digest covers the body only).
func headUvarint(br *bufio.Reader, what string) (uint64, error) {
	v, err := binary.ReadUvarint(br)
	if err != nil {
		return 0, fmt.Errorf("traceio: header: bad %s varint: %w", what, err)
	}
	return v, nil
}

// readHeader parses and validates the magic and header from the
// decompressed stream, consuming exactly through the last header byte so
// the body follows. It reads a bounded number of bytes regardless of
// input, which is what lets ReadInfo serve header queries without
// inflating the body.
func readHeader(br *bufio.Reader) (Header, error) {
	var m [8]byte
	if _, err := io.ReadFull(br, m[:]); err != nil {
		return Header{}, fmt.Errorf("traceio: short header: %w", err)
	}
	if !bytes.Equal(m[:], magic) {
		return Header{}, fmt.Errorf("traceio: bad magic %q (not a specsched µ-op trace)", m[:])
	}
	ver, err := headUvarint(br, "version")
	if err != nil {
		return Header{}, err
	}
	if ver != Version {
		return Header{}, fmt.Errorf("traceio: unsupported format version %d (this build reads version %d)", ver, Version)
	}
	genLen, err := headUvarint(br, "generator length")
	if err != nil {
		return Header{}, err
	}
	if genLen > maxGeneratorLen {
		return Header{}, fmt.Errorf("traceio: generator fingerprint length %d exceeds limit %d", genLen, maxGeneratorLen)
	}
	gen := make([]byte, genLen)
	if _, err := io.ReadFull(br, gen); err != nil {
		return Header{}, fmt.Errorf("traceio: truncated generator fingerprint: %w", err)
	}
	wpSeed, err := headUvarint(br, "wrong-path seed")
	if err != nil {
		return Header{}, err
	}
	count, err := headUvarint(br, "µ-op count")
	if err != nil {
		return Header{}, err
	}
	if count > 1<<50 {
		return Header{}, fmt.Errorf("traceio: implausible µ-op count %d", count)
	}
	digest, err := headUvarint(br, "digest")
	if err != nil {
		return Header{}, err
	}
	return Header{
		Version:       int(ver),
		Generator:     string(gen),
		WrongPathSeed: wpSeed,
		Count:         int64(count),
		Digest:        digest,
	}, nil
}

// Header returns the trace's front matter.
func (d *Decoder) Header() Header { return d.h }

// Err returns the decode error, if any. It is nil while µ-ops are still
// being produced and after a clean end-of-trace; a truncated body, corrupt
// record, digest mismatch, or trailing garbage makes it non-nil once
// NextInto has returned false.
func (d *Decoder) Err() error { return d.err }

// bodyByte reads one body byte.
func (d *Decoder) bodyByte() (byte, bool) {
	if d.pos >= len(d.payload) {
		return 0, false
	}
	b := d.payload[d.pos]
	d.pos++
	return b, true
}

// bodyUvarint reads one body varint.
func (d *Decoder) bodyUvarint() (uint64, bool) {
	v, n := binary.Uvarint(d.payload[d.pos:])
	if n <= 0 {
		return 0, false
	}
	d.pos += n
	return v, true
}

// fail records a terminal decode error.
func (d *Decoder) fail(format string, args ...interface{}) bool {
	d.done = true
	d.err = fmt.Errorf("traceio: µ-op %d: "+format, append([]interface{}{d.read}, args...)...)
	return false
}

// finish runs the end-of-trace checks exactly once. The body digest was
// already verified at construction; what remains is structural: every
// payload byte must belong to one of the Count records.
func (d *Decoder) finish() bool {
	d.done = true
	if d.pos != len(d.payload) {
		d.err = fmt.Errorf("traceio: %d bytes of trailing data after %d µ-ops", len(d.payload)-d.pos, d.h.Count)
	}
	return false
}

// readReg decodes one register operand byte.
func (d *Decoder) readReg(dst *int) bool {
	b, ok := d.bodyByte()
	if !ok {
		return d.fail("truncated register operand")
	}
	if int(b) >= uop.NumArchRegs {
		return d.fail("register %d out of range", b)
	}
	*dst = int(b)
	return true
}

// NextInto implements uop.Stream: it decodes the next record straight
// into dst without allocating (TestDecoderSteadyStateZeroAllocs pins it
// at runtime; specschedlint's hotpathalloc pins it at the diff).
//
//specsched:hotpath
func (d *Decoder) NextInto(dst *uop.UOp) bool {
	if d.done {
		return false
	}
	if d.read == d.h.Count {
		return d.finish()
	}
	flags, ok := d.bodyByte()
	if !ok {
		return d.fail("truncated record")
	}
	class := uop.Class(flags & flagClassMask)
	if int(class) >= uop.NumClasses {
		return d.fail("unknown class %d", class)
	}
	seqDelta, ok := d.bodyUvarint()
	if !ok {
		return d.fail("bad sequence delta")
	}
	pcDelta, ok := d.bodyUvarint()
	if !ok {
		return d.fail("bad pc delta")
	}
	d.st.seq += unzigzag(seqDelta)
	d.st.pc += uint64(unzigzag(pcDelta))

	dst.Seq = d.st.seq
	dst.PC = d.st.pc
	dst.Class = class
	dst.Src1 = uop.RegNone
	dst.Src2 = uop.RegNone
	dst.Dest = uop.RegNone
	dst.Addr = 0
	dst.Size = 0
	dst.Taken = flags&flagTaken != 0
	dst.Target = 0
	dst.WrongPath = false

	if flags&flagSrc1 != 0 && !d.readReg(&dst.Src1) {
		return false
	}
	if flags&flagSrc2 != 0 && !d.readReg(&dst.Src2) {
		return false
	}
	if flags&flagDest != 0 && !d.readReg(&dst.Dest) {
		return false
	}
	if class.IsMem() {
		addrDelta, ok := d.bodyUvarint()
		if !ok {
			return d.fail("bad address delta")
		}
		d.st.addr += uint64(unzigzag(addrDelta))
		dst.Addr = d.st.addr
		sz, ok := d.bodyByte()
		if !ok {
			return d.fail("truncated access size")
		}
		dst.Size = sz
	}
	if class == uop.ClassBranch {
		tgtDelta, ok := d.bodyUvarint()
		if !ok {
			return d.fail("bad target delta")
		}
		dst.Target = dst.PC + uint64(unzigzag(tgtDelta))
	}
	d.read++
	return true
}

// ReadInfo reads and validates a trace's header without inflating or
// decoding the body: it reads only the compressed bytes the header parse
// demands, so header queries over large traces stay cheap.
func ReadInfo(r io.Reader) (Header, error) {
	gz, err := gzip.NewReader(r)
	if err != nil {
		return Header{}, fmt.Errorf("traceio: not a trace (gzip container): %w", err)
	}
	return readHeader(bufio.NewReader(gz))
}

// Verify fully decodes a trace, checking every record, the µ-op count, the
// body digest, and the container trailer. It returns the header on success.
func Verify(r io.Reader) (Header, error) {
	d, err := NewDecoder(r)
	if err != nil {
		return Header{}, err
	}
	var u uop.UOp
	for d.NextInto(&u) {
	}
	return d.h, d.Err()
}
