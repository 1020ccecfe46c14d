package transport

import (
	"bytes"
	"reflect"
	"testing"

	"repdir/internal/codec"
	"repdir/internal/keyspace"
	"repdir/internal/rep"
	"repdir/internal/version"
)

// fuzzKey maps fuzz inputs onto the three key kinds.
func fuzzKey(kind uint8, s string) keyspace.Key {
	switch kind % 3 {
	case 0:
		return keyspace.Low()
	case 1:
		return keyspace.High()
	default:
		return keyspace.New(s)
	}
}

// FuzzCodecRoundTrip drives the binary codec from both ends: structured
// inputs must encode→decode to identical messages for every
// request/response variant, and the raw encoded bytes — plus arbitrary
// mutations of them the fuzzer discovers — must never panic the
// decoders or read out of bounds. The decoders see `raw` directly, so
// the fuzzer explores corrupt framings as well as valid ones.
func FuzzCodecRoundTrip(f *testing.F) {
	f.Add(uint8(1), uint64(1), uint64(2), uint8(2), "key", uint8(0), "", uint64(3), "value", 4, uint8(0), "", []byte{})
	f.Add(uint8(6), uint64(9), uint64(8), uint8(2), "k", uint8(1), "hi", uint64(1<<40), "v", 0, uint8(2), "msg", []byte{0x01, 0x02})
	f.Add(uint8(12), uint64(0), uint64(0), uint8(0), "", uint8(2), "z", uint64(0), "", -1, uint8(9), "boom", []byte{0xff, 0xff, 0xff})

	f.Fuzz(func(t *testing.T, tag uint8, id, txn uint64, keyKind uint8, keyS string,
		hiKind uint8, hiS string, ver uint64, value string, count int, codeByte uint8, msg string, raw []byte) {

		// Structured round trip: a valid request of every op.
		reqOp := op(tag%12) + 1
		req := request{ID: id, Op: reqOp, Txn: txn, Epoch: id ^ txn, Deadline: ver ^ id}
		switch reqOp {
		case opLookup, opPredecessor, opSuccessor:
			req.Key = fuzzKey(keyKind, keyS)
		case opPredecessorBatch, opSuccessorBatch:
			req.Key = fuzzKey(keyKind, keyS)
			if count < 0 {
				count = -count
			}
			req.Count = count % (1 << 20)
		case opInsert:
			req.Key = fuzzKey(keyKind, keyS)
			req.Version = version.V(ver)
			req.Value = value
		case opCoalesce:
			req.Key = fuzzKey(keyKind, keyS)
			req.Hi = fuzzKey(hiKind, hiS)
			req.Version = version.V(ver)
		}
		encReq := appendRequest(nil, &req)
		r := codec.NewReader(encReq)
		var gotReq request
		if err := readRequest(r, &gotReq); err != nil {
			t.Fatalf("valid request %+v failed to decode: %v", req, err)
		}
		if !reflect.DeepEqual(gotReq, req) {
			t.Fatalf("request round trip:\n got  %+v\n want %+v", gotReq, req)
		}
		if r.Remaining() != 0 {
			t.Fatalf("request decode left %d bytes", r.Remaining())
		}

		// Structured round trip: a response for the same op, OK or error.
		resp := response{ID: id, Op: reqOp, Code: code(codeByte % 11)}
		if resp.Code != codeOK {
			resp.Msg = msg
		} else {
			switch reqOp {
			case opLookup:
				resp.Found = ver%2 == 0
				resp.Version = version.V(ver)
				resp.Value = value
			case opPredecessor, opSuccessor:
				resp.Key = fuzzKey(keyKind, keyS)
				resp.Version = version.V(ver)
				resp.Value = value
				resp.GapVersion = version.V(ver / 2)
			case opPredecessorBatch, opSuccessorBatch:
				n := int(ver%3) + 1
				for i := 0; i < n; i++ {
					resp.Neighbors = append(resp.Neighbors, rep.NeighborResult{
						Key: fuzzKey(keyKind+uint8(i), keyS), Version: version.V(ver),
						Value: value, GapVersion: version.V(uint64(i)),
					})
				}
			case opCoalesce:
				if len(keyS) > 0 {
					resp.DeletedKeys = []keyspace.Key{fuzzKey(2, keyS), keyspace.Low()}
				}
			case opStatus:
				resp.TxnStatus = rep.TxnStatus(ver % 4)
			case opName:
				resp.Name = value
			}
		}
		encResp := appendResponse(nil, &resp)
		var gotResp response
		if err := readResponse(codec.NewReader(encResp), &gotResp); err != nil {
			t.Fatalf("valid response %+v failed to decode: %v", resp, err)
		}
		if !reflect.DeepEqual(gotResp, resp) {
			t.Fatalf("response round trip:\n got  %+v\n want %+v", gotResp, resp)
		}

		// Re-encoding the decoded message must be byte-identical
		// (canonical encoding — no two spellings of one message).
		if re := appendRequest(nil, &gotReq); !bytes.Equal(re, encReq) {
			t.Fatalf("request re-encode differs:\n got  %#v\n want %#v", re, encReq)
		}
		if re := appendResponse(nil, &gotResp); !bytes.Equal(re, encResp) {
			t.Fatalf("response re-encode differs:\n got  %#v\n want %#v", re, encResp)
		}

		// Adversarial half: arbitrary bytes must error or decode, never
		// panic. Decode repeatedly to walk multi-message framings.
		for _, buf := range [][]byte{raw, encReq, encResp} {
			r := codec.NewReader(buf)
			for r.Remaining() > 0 {
				var rq request
				if err := readRequest(r, &rq); err != nil {
					break
				}
			}
			r = codec.NewReader(buf)
			for r.Remaining() > 0 {
				var rs response
				if err := readResponse(r, &rs); err != nil {
					break
				}
			}
		}
	})
}
