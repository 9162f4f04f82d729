// Package snapshot is the versioned, deterministic binary codec for
// machine-state checkpoints. Every simulator layer (mem, core, cache,
// coherence) serializes itself through a Writer and restores through a
// Reader; the container format carries a magic number, a codec version,
// a kind string (which machine shape the snapshot holds), a caller
// fingerprint (the prefix-configuration hash), and a trailing checksum
// over the payload, so a corrupt, truncated, or mismatched file is
// rejected with a typed error instead of deserializing garbage.
//
// The encoding is fixed-width little-endian with explicit section tags
// between layers. Two snapshots of identical machine state are
// byte-identical — StateHash over the serialized form is therefore a
// machine-state hash — and restore is defined only at 64-cycle block
// boundaries (the simulators' shared cancellation/watchdog/metrics
// cadence), which is what makes a forked run position-identical to an
// uninterrupted one by construction.
//
// The package is a near-leaf: it imports only the standard library plus
// internal/faultfs (itself a stdlib-only leaf, threading fault-injected
// filesystems under SaveFile), so every simulation layer can depend on
// it without cycles.
package snapshot

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/faultfs"
)

// Version is the codec version. Any change to a layer's serialized
// field set must bump it; Decode rejects other versions with ErrVersion
// so stale checkpoint files fall back to from-scratch simulation rather
// than restoring skewed state.
const Version = 1

// magic identifies a snapshot container ("RPSN", little-endian).
const magic uint32 = 0x4e535052

// Typed failures. Callers distinguish "this file is not a usable
// checkpoint" (fall back to scratch simulation) from real I/O errors.
var (
	// ErrCorrupt marks a container that is structurally broken:
	// bad magic, truncated data, checksum mismatch, or a payload that
	// does not decode against the layer's schema.
	ErrCorrupt = errors.New("snapshot: corrupt")
	// ErrVersion marks a container written by a different codec version.
	ErrVersion = errors.New("snapshot: codec version mismatch")
	// ErrMismatch marks a well-formed container holding a different
	// machine kind or prefix fingerprint than the caller expects.
	ErrMismatch = errors.New("snapshot: wrong snapshot")
)

// fnv1a is the repo-wide hash convention (same constants as
// mem.Memory.Hash and core.Thread.HashArchState).
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// StateHash hashes a serialized snapshot (FNV-1a over every byte).
// Because the encoding is deterministic, equal hashes mean equal
// machine state for snapshots of the same kind.
func StateHash(data []byte) uint64 {
	h := uint64(fnvOffset)
	for _, b := range data {
		h = (h ^ uint64(b)) * fnvPrime
	}
	return h
}

// Writer serializes machine state into a growing buffer using
// fixed-width little-endian encoding.
type Writer struct {
	buf []byte
}

// NewWriter returns an empty Writer.
func NewWriter() *Writer { return &Writer{} }

// Bytes returns the raw serialized payload written so far.
func (w *Writer) Bytes() []byte { return w.buf }

// U8 appends one byte.
func (w *Writer) U8(v uint8) { w.buf = append(w.buf, v) }

// Bool appends a boolean as one byte.
func (w *Writer) Bool(v bool) {
	if v {
		w.U8(1)
	} else {
		w.U8(0)
	}
}

// U32 appends a little-endian uint32.
func (w *Writer) U32(v uint32) { w.buf = binary.LittleEndian.AppendUint32(w.buf, v) }

// U64 appends a little-endian uint64.
func (w *Writer) U64(v uint64) { w.buf = binary.LittleEndian.AppendUint64(w.buf, v) }

// I64 appends an int64 (two's complement, little-endian).
func (w *Writer) I64(v int64) { w.U64(uint64(v)) }

// Int appends an int as int64.
func (w *Writer) Int(v int) { w.I64(int64(v)) }

// String appends a length-prefixed UTF-8 string.
func (w *Writer) String(s string) {
	w.U32(uint32(len(s)))
	w.buf = append(w.buf, s...)
}

// Section appends a section tag. Tags delimit each layer's block so a
// drifted encoder/decoder pair fails loudly at the seam instead of
// silently misreading the following fields.
func (w *Writer) Section(tag uint32) { w.U32(tag) }

// Reader deserializes a payload written by Writer. Errors are sticky:
// the first short read or tag mismatch records ErrCorrupt, every later
// call returns zero values, and the caller checks Err once at the end.
type Reader struct {
	buf []byte
	off int
	err error
}

// NewReader wraps a payload.
func NewReader(data []byte) *Reader { return &Reader{buf: data} }

// Err returns the sticky decode error, nil if every read succeeded.
func (r *Reader) Err() error { return r.err }

// Remaining returns the number of unread payload bytes.
func (r *Reader) Remaining() int { return len(r.buf) - r.off }

// Fail records the sticky ErrCorrupt error (first failure wins). Layers
// call it when a payload decodes but breaks one of their invariants.
func (r *Reader) Fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: %s at offset %d", ErrCorrupt, fmt.Sprintf(format, args...), r.off)
	}
}

func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if r.off+n > len(r.buf) {
		r.Fail("truncated (%d bytes wanted, %d left)", n, len(r.buf)-r.off)
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

// U8 reads one byte.
func (r *Reader) U8() uint8 {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// Bool reads a boolean.
func (r *Reader) Bool() bool { return r.U8() != 0 }

// U32 reads a little-endian uint32.
func (r *Reader) U32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// U64 reads a little-endian uint64.
func (r *Reader) U64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// I64 reads an int64.
func (r *Reader) I64() int64 { return int64(r.U64()) }

// Int reads an int written by Writer.Int.
func (r *Reader) Int() int { return int(r.I64()) }

// String reads a length-prefixed string.
func (r *Reader) String() string {
	n := r.U32()
	if int64(n) > int64(r.Remaining()) {
		r.Fail("string length %d exceeds remaining payload", n)
		return ""
	}
	b := r.take(int(n))
	return string(b)
}

// Section consumes a section tag and verifies it.
func (r *Reader) Section(tag uint32) {
	got := r.U32()
	if r.err == nil && got != tag {
		r.Fail("section tag %#x, want %#x", got, tag)
	}
}

// Expect verifies a decoded value against the value the restoring
// machine was constructed with; a mismatch means the snapshot belongs
// to a differently-shaped machine and restore must not proceed.
func (r *Reader) Expect(what string, got, want int64) {
	if r.err == nil && got != want {
		r.Fail("%s is %d in snapshot but %d in target machine", what, got, want)
	}
}

// ExpectStr is Expect for string-valued shape fields (thread and scheme
// names).
func (r *Reader) ExpectStr(what, got, want string) {
	if r.err == nil && got != want {
		r.Fail("%s is %q in snapshot but %q in target machine", what, got, want)
	}
}

// Container layout (all little-endian):
//
//	u32 magic | u32 version | str kind | str fingerprint |
//	u32 payloadLen | payload | u64 fnv1a(payload)

// Encode wraps a serialized payload in the versioned container.
func Encode(kind, fingerprint string, payload []byte) []byte {
	w := NewWriter()
	w.U32(magic)
	w.U32(Version)
	w.String(kind)
	w.String(fingerprint)
	w.U32(uint32(len(payload)))
	w.buf = append(w.buf, payload...)
	w.U64(StateHash(payload))
	return w.Bytes()
}

// Decode validates a container and returns a Reader over its payload.
// The kind and fingerprint must match what the caller is restoring
// into: kind names the machine shape, fingerprint the prefix
// configuration that produced the checkpoint.
func Decode(data []byte, kind, fingerprint string) (*Reader, error) {
	r := NewReader(data)
	if got := r.U32(); r.err != nil || got != magic {
		return nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	if got := r.U32(); r.err != nil || got != Version {
		return nil, fmt.Errorf("%w: file has codec version %d, this binary speaks %d", ErrVersion, got, Version)
	}
	gotKind := r.String()
	gotFP := r.String()
	n := r.U32()
	payload := r.take(int(n))
	sum := r.U64()
	if r.err != nil {
		return nil, r.err
	}
	if r.Remaining() != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, r.Remaining())
	}
	if StateHash(payload) != sum {
		return nil, fmt.Errorf("%w: payload checksum mismatch", ErrCorrupt)
	}
	if gotKind != kind {
		return nil, fmt.Errorf("%w: snapshot kind %q, want %q", ErrMismatch, gotKind, kind)
	}
	if gotFP != fingerprint {
		return nil, fmt.Errorf("%w: prefix fingerprint %q, want %q", ErrMismatch, gotFP, fingerprint)
	}
	return NewReader(payload), nil
}

// Finish verifies a payload Reader consumed cleanly: no decode error
// and no unread bytes. Every RestoreState chain ends here.
func Finish(r *Reader) error {
	if err := r.Err(); err != nil {
		return err
	}
	if r.Remaining() != 0 {
		return fmt.Errorf("%w: %d unread payload bytes", ErrCorrupt, r.Remaining())
	}
	return nil
}

// SaveFile writes a container to path atomically (temp file in the
// same directory + rename + parent-directory fsync), so a crash
// mid-write never leaves a half-written checkpoint where a later run
// would trip over it.
func SaveFile(path string, data []byte) error {
	return SaveFileFS(nil, path, data)
}

// SaveFileFS is SaveFile over an explicit filesystem; a nil fsys means
// the real one. Fault-injection harnesses pass a faultfs injector to
// exercise the crash-safety claim.
func SaveFileFS(fsys faultfs.FS, path string, data []byte) error {
	fsys = faultfs.OrOS(fsys)
	dir := filepath.Dir(path)
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp, err := fsys.CreateTemp(dir, ".snapshot-*")
	if err != nil {
		return err
	}
	defer fsys.Remove(tmp.Name())
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := fsys.Rename(tmp.Name(), path); err != nil {
		return err
	}
	return fsys.SyncDir(dir)
}

// LoadFile reads a container written by SaveFile.
func LoadFile(path string) ([]byte, error) { return os.ReadFile(path) }
