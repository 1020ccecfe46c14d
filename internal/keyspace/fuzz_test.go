package keyspace

import "testing"

// FuzzTupleRoundTrip: arbitrary components survive encode/decode, and
// arbitrary bytes never panic the decoder.
func FuzzTupleRoundTrip(f *testing.F) {
	f.Add("a", "b", []byte("probe"))
	f.Add("", "\x00", []byte{0x00})
	f.Add("x\x00\x01y", "\xff", []byte{0x00, 0x01})
	f.Fuzz(func(t *testing.T, c1, c2 string, raw []byte) {
		k := EncodeTuple(c1, c2)
		comps, err := DecodeTuple(k)
		if err != nil {
			t.Fatalf("decode of valid encoding failed: %v", err)
		}
		if len(comps) != 2 || comps[0] != c1 || comps[1] != c2 {
			t.Fatalf("round trip (%q,%q) -> %q", c1, c2, comps)
		}
		// Arbitrary bytes: decode may fail but must not panic, and any
		// successful decode must re-encode to the same key.
		if comps, err := DecodeTuple(New(string(raw))); err == nil {
			if !EncodeTuple(comps...).Equal(New(string(raw))) {
				t.Fatalf("decode/encode of %x not canonical", raw)
			}
		}
	})
}

// FuzzCompareOrdering checks that Compare stays antisymmetric for
// arbitrary spellings.
func FuzzCompareOrdering(f *testing.F) {
	f.Add("a", "b")
	f.Add("", "")
	f.Add("zz", "z")
	f.Fuzz(func(t *testing.T, a, b string) {
		ka, kb := New(a), New(b)
		if ka.Compare(kb) != -kb.Compare(ka) {
			t.Fatalf("Compare(%q,%q) not antisymmetric", a, b)
		}
		if (ka.Compare(kb) == 0) != (a == b) {
			t.Fatalf("Compare equality mismatch for %q vs %q", a, b)
		}
	})
}
