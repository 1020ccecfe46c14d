// Package codec is the one binary encoding shared by the transport's
// wire messages, the write-ahead log's records, and the snapshot file:
// unsigned varints, length-prefixed byte strings, one-byte bools, and
// keys as a one-byte kind tag (1 = LOW, 2 = normal + length-prefixed
// spelling, 3 = HIGH).
//
// Encoding is a family of Append functions that grow a caller-owned
// buffer and never fail. Decoding is a bounds-checked Reader over one
// complete buffer that accepts only canonical input, so every value has
// one spelling; every error it returns wraps ErrCodec, so a caller can
// tell malformed input from an I/O failure with errors.Is. The layouts
// built from these primitives are on-disk and on-wire contracts, pinned
// byte-for-byte by golden-vector tests in the packages that own them.
package codec

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repdir/internal/keyspace"
)

// Key kind tags. Part of every layout that carries a key; never
// renumber.
const (
	keyLow    byte = 1
	keyNormal byte = 2
	keyHigh   byte = 3
)

// ErrCodec is wrapped by every decode error.
var ErrCodec = errors.New("codec: malformed input")

// AppendUvarint appends v in unsigned varint form.
func AppendUvarint(b []byte, v uint64) []byte {
	return binary.AppendUvarint(b, v)
}

// AppendBytes appends s as a uvarint length followed by its bytes.
func AppendBytes(b []byte, s string) []byte {
	b = AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// AppendBool appends v as one byte, 0 or 1.
func AppendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// AppendKey appends k as its kind tag plus, for normal keys, the
// length-prefixed spelling.
func AppendKey(b []byte, k keyspace.Key) []byte {
	switch {
	case k.IsLow():
		return append(b, keyLow)
	case k.IsHigh():
		return append(b, keyHigh)
	default:
		b = append(b, keyNormal)
		return AppendBytes(b, k.Raw())
	}
}

// Reader decodes from one complete buffer. Strings and keys are
// copied out, so decoded values outlive the buffer.
type Reader struct {
	buf []byte
	off int
}

// NewReader returns a Reader positioned at the start of buf.
func NewReader(buf []byte) *Reader { return &Reader{buf: buf} }

// Remaining reports how many bytes are left to decode.
func (r *Reader) Remaining() int { return len(r.buf) - r.off }

// ReadByte returns the next byte.
func (r *Reader) ReadByte() (byte, error) {
	if r.off >= len(r.buf) {
		return 0, fmt.Errorf("%w: truncated", ErrCodec)
	}
	b := r.buf[r.off]
	r.off++
	return b, nil
}

// ReadUvarint returns the next unsigned varint. Only the minimal
// encoding is accepted (a zero final byte means padding), so every
// value has one spelling.
func (r *Reader) ReadUvarint() (uint64, error) {
	v, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 {
		return 0, fmt.Errorf("%w: bad varint", ErrCodec)
	}
	if n > 1 && r.buf[r.off+n-1] == 0 {
		return 0, fmt.Errorf("%w: overlong varint", ErrCodec)
	}
	r.off += n
	return v, nil
}

// ReadString returns the next length-prefixed byte string.
func (r *Reader) ReadString() (string, error) {
	n, err := r.ReadUvarint()
	if err != nil {
		return "", err
	}
	if n > uint64(r.Remaining()) {
		return "", fmt.Errorf("%w: byte string length %d exceeds the %d bytes left", ErrCodec, n, r.Remaining())
	}
	s := string(r.buf[r.off : r.off+int(n)])
	r.off += int(n)
	return s, nil
}

// ReadBool returns the next bool; any byte other than 0 or 1 is an
// error, so every bool has one spelling.
func (r *Reader) ReadBool() (bool, error) {
	b, err := r.ReadByte()
	if err != nil {
		return false, err
	}
	switch b {
	case 0:
		return false, nil
	case 1:
		return true, nil
	default:
		return false, fmt.Errorf("%w: bad bool byte %d", ErrCodec, b)
	}
}

// ReadKey returns the next key.
func (r *Reader) ReadKey() (keyspace.Key, error) {
	kind, err := r.ReadByte()
	if err != nil {
		return keyspace.Key{}, err
	}
	switch kind {
	case keyLow:
		return keyspace.Low(), nil
	case keyHigh:
		return keyspace.High(), nil
	case keyNormal:
		s, err := r.ReadString()
		if err != nil {
			return keyspace.Key{}, err
		}
		return keyspace.New(s), nil
	default:
		return keyspace.Key{}, fmt.Errorf("%w: unknown key kind %d", ErrCodec, kind)
	}
}

// ReadCount returns the next uvarint as the length of a list whose
// elements each encode to at least minSize bytes. A count the
// remaining bytes cannot hold is an error, so a corrupt count can
// never size an allocation beyond the input itself.
func (r *Reader) ReadCount(minSize int) (int, error) {
	n, err := r.ReadUvarint()
	if err != nil {
		return 0, err
	}
	if n > uint64(r.Remaining()/minSize) {
		return 0, fmt.Errorf("%w: count %d exceeds the %d bytes left", ErrCodec, n, r.Remaining())
	}
	return int(n), nil
}
