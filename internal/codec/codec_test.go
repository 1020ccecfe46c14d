package codec

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"repdir/internal/keyspace"
)

// TestKeyGoldenVectors pins the key encoding every layout shares.
func TestKeyGoldenVectors(t *testing.T) {
	for _, v := range []struct {
		key  keyspace.Key
		want []byte
	}{
		{keyspace.Low(), []byte{0x01}},
		{keyspace.New(""), []byte{0x02, 0x00}},
		{keyspace.New("ab"), []byte{0x02, 0x02, 'a', 'b'}},
		{keyspace.High(), []byte{0x03}},
	} {
		if got := AppendKey(nil, v.key); !bytes.Equal(got, v.want) {
			t.Errorf("AppendKey(%s) = %#v, want %#v", v.key, got, v.want)
		}
	}
}

// Property: the key encoding round-trips every key, sentinels included,
// and consumes exactly what it wrote.
func TestKeyRoundTripProperty(t *testing.T) {
	roundTrip := func(k keyspace.Key) bool {
		r := NewReader(AppendKey(nil, k))
		back, err := r.ReadKey()
		return err == nil && back.Equal(k) && r.Remaining() == 0
	}
	if !roundTrip(keyspace.Low()) || !roundTrip(keyspace.High()) {
		t.Error("sentinel round trip failed")
	}
	f := func(s string) bool { return roundTrip(keyspace.New(s)) }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestReadErrorsWrapErrCodec: every malformed input is an error
// wrapping ErrCodec.
func TestReadErrorsWrapErrCodec(t *testing.T) {
	for name, read := range map[string]func(*Reader) error{
		"byte":    func(r *Reader) error { _, err := r.ReadByte(); return err },
		"uvarint": func(r *Reader) error { _, err := r.ReadUvarint(); return err },
		"string":  func(r *Reader) error { _, err := r.ReadString(); return err },
		"bool":    func(r *Reader) error { _, err := r.ReadBool(); return err },
		"key":     func(r *Reader) error { _, err := r.ReadKey(); return err },
		"count":   func(r *Reader) error { _, err := r.ReadCount(1); return err },
	} {
		if err := read(NewReader(nil)); !errors.Is(err, ErrCodec) {
			t.Errorf("%s on empty input = %v, want ErrCodec", name, err)
		}
	}
	for name, in := range map[string][]byte{
		"unknown key kind":      {99},
		"key spelling too long": {0x02, 0x05, 'a'},
		"varint overflow":       {0x02, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01},
		"padded varint":         {0x02, 0x80, 0x00},
	} {
		if _, err := NewReader(in).ReadKey(); !errors.Is(err, ErrCodec) {
			t.Errorf("ReadKey(%s) = %v, want ErrCodec", name, err)
		}
	}
	if _, err := NewReader([]byte{2}).ReadBool(); !errors.Is(err, ErrCodec) {
		t.Errorf("ReadBool(2) = %v, want ErrCodec", err)
	}
	// Three elements of at least two bytes need six bytes, not five.
	if _, err := NewReader([]byte{3, 0, 0, 0, 0, 0}).ReadCount(2); !errors.Is(err, ErrCodec) {
		t.Errorf("ReadCount over the remaining bytes = %v, want ErrCodec", err)
	}
	if n, err := NewReader([]byte{3, 0, 0, 0, 0, 0, 0}).ReadCount(2); err != nil || n != 3 {
		t.Errorf("ReadCount = %d, %v, want 3", n, err)
	}
}

// FuzzReadKey feeds arbitrary bytes to the key reader: it must never
// panic, and every decoded key must re-encode to exactly the bytes it
// was read from (one spelling per key) and decode back to itself.
func FuzzReadKey(f *testing.F) {
	f.Add(AppendKey(nil, keyspace.New("hello")))
	f.Add(AppendKey(nil, keyspace.Low()))
	f.Add(AppendKey(nil, keyspace.High()))
	f.Add([]byte{})
	f.Add([]byte{0xff, 0x01, 0x02})

	f.Fuzz(func(t *testing.T, data []byte) {
		r := NewReader(data)
		k, err := r.ReadKey()
		if err != nil {
			if !errors.Is(err, ErrCodec) {
				t.Fatalf("decode error %v does not wrap ErrCodec", err)
			}
			return
		}
		consumed := data[:len(data)-r.Remaining()]
		out := AppendKey(nil, k)
		if !bytes.Equal(out, consumed) {
			t.Fatalf("encoding not canonical: %x vs %x", out, consumed)
		}
		back, err := NewReader(out).ReadKey()
		if err != nil || !back.Equal(k) {
			t.Fatalf("round trip changed key: %s vs %s (%v)", k, back, err)
		}
	})
}
