package transport

import (
	"fmt"

	"repdir/internal/codec"
	"repdir/internal/keyspace"
	"repdir/internal/rep"
	"repdir/internal/version"
)

// Binary wire codec, protocol version 4. Messages are built from the
// shared internal/codec primitives: fixed one-byte op tags, varint
// integer fields, and length-prefixed byte strings, so a request
// encodes with a handful of appends into a pooled buffer and decodes
// with a handful of slice reads.
//
// Stream preamble (once per connection, client then server):
//
//	+------+---------+
//	| 0x00 | version |
//	+------+---------+
//
// Both sides send wireVersion and require the peer's preamble to match
// it exactly; a server closes a connection that offers anything else,
// and a client treats a mismatched or missing reply as a failed dial
// (ErrUnavailable, retried with the usual redial backoff).
//
// After the preamble, both directions carry frames:
//
//	+----------------+------------------------------+
//	| uvarint length | message, message, ...        |
//	+----------------+------------------------------+
//
// A frame holds one or more complete messages; coalescing concurrent
// quorum-round traffic into multi-message frames is the transport's
// batching mechanism (see frameWriter). Messages are self-delimiting,
// so the decoder simply reads until the frame is exhausted.
//
// Request message:
//
//	tag(1) id(uvarint) txn(uvarint) epoch(uvarint) deadline(uvarint) fields...
//
// epoch is the caller's configuration epoch (0 = unversioned), for
// epoch fencing (internal/reconfig); deadline is the caller's remaining
// budget in microseconds (0 = none), for server-side deadline
// propagation and expired-work rejection.
//
// Response message:
//
//	tag(1) id(uvarint) code(1) [msg(bytes) if code!=OK | fields if OK]
//
// Keys use the codec's kind tags (1=LOW, 2=normal+bytes, 3=HIGH);
// strings and byte fields are uvarint length + raw bytes. The exact
// per-op field layouts are pinned byte-for-byte by
// TestWireGoldenVectors; this encoding is an on-wire contract — extend
// it with new tags, never by reshaping existing ones.

const (
	// preambleByte opens every stream.
	preambleByte = 0x00
	// wireVersion is the only codec version spoken, sent and required
	// in both preambles. Version 4 added opLookupOnce; every tag of
	// version 3 encodes as before.
	wireVersion = 4

	// maxFrameLen bounds a received frame before its buffer is
	// allocated, so a corrupt or hostile length prefix cannot balloon
	// memory. Single messages above the bound fail at the sender.
	maxFrameLen = 64 << 20
)

// appendRequest appends one encoded request message to b. It never
// fails and performs no allocation beyond growing b.
func appendRequest(b []byte, req *request) []byte {
	b = append(b, byte(req.Op))
	b = codec.AppendUvarint(b, req.ID)
	b = codec.AppendUvarint(b, req.Txn)
	b = codec.AppendUvarint(b, req.Epoch)
	b = codec.AppendUvarint(b, req.Deadline)
	switch req.Op {
	case opLookup, opLookupOnce, opPredecessor, opSuccessor:
		b = codec.AppendKey(b, req.Key)
	case opPredecessorBatch, opSuccessorBatch:
		b = codec.AppendKey(b, req.Key)
		b = codec.AppendUvarint(b, uint64(req.Count))
	case opInsert:
		b = codec.AppendKey(b, req.Key)
		b = codec.AppendUvarint(b, uint64(req.Version))
		b = codec.AppendBytes(b, req.Value)
	case opCoalesce:
		b = codec.AppendKey(b, req.Key)
		b = codec.AppendKey(b, req.Hi)
		b = codec.AppendUvarint(b, uint64(req.Version))
	case opPrepare, opCommit, opAbort, opStatus, opName:
		// No fields beyond the common header.
	}
	return b
}

// appendResponse appends one encoded response message to b.
func appendResponse(b []byte, resp *response) []byte {
	b = append(b, byte(resp.Op))
	b = codec.AppendUvarint(b, resp.ID)
	b = append(b, byte(resp.Code))
	if resp.Code != codeOK {
		return codec.AppendBytes(b, resp.Msg)
	}
	switch resp.Op {
	case opLookup, opLookupOnce:
		b = codec.AppendBool(b, resp.Found)
		b = codec.AppendUvarint(b, uint64(resp.Version))
		b = codec.AppendBytes(b, resp.Value)
	case opPredecessor, opSuccessor:
		b = codec.AppendKey(b, resp.Key)
		b = codec.AppendUvarint(b, uint64(resp.Version))
		b = codec.AppendBytes(b, resp.Value)
		b = codec.AppendUvarint(b, uint64(resp.GapVersion))
	case opPredecessorBatch, opSuccessorBatch:
		b = codec.AppendUvarint(b, uint64(len(resp.Neighbors)))
		for i := range resp.Neighbors {
			n := &resp.Neighbors[i]
			b = codec.AppendKey(b, n.Key)
			b = codec.AppendUvarint(b, uint64(n.Version))
			b = codec.AppendBytes(b, n.Value)
			b = codec.AppendUvarint(b, uint64(n.GapVersion))
		}
	case opCoalesce:
		b = codec.AppendUvarint(b, uint64(len(resp.DeletedKeys)))
		for _, k := range resp.DeletedKeys {
			b = codec.AppendKey(b, k)
		}
	case opStatus:
		b = codec.AppendUvarint(b, uint64(resp.TxnStatus))
	case opName:
		b = codec.AppendBytes(b, resp.Name)
	case opInsert, opPrepare, opCommit, opAbort:
		// No result fields.
	}
	return b
}

// readRequest decodes the next request message from r into *req,
// overwriting every field.
func readRequest(r *codec.Reader, req *request) error {
	tag, err := r.ReadByte()
	if err != nil {
		return err
	}
	*req = request{Op: op(tag)}
	if req.ID, err = r.ReadUvarint(); err != nil {
		return err
	}
	if req.Txn, err = r.ReadUvarint(); err != nil {
		return err
	}
	if req.Epoch, err = r.ReadUvarint(); err != nil {
		return err
	}
	if req.Deadline, err = r.ReadUvarint(); err != nil {
		return err
	}
	switch req.Op {
	case opLookup, opLookupOnce, opPredecessor, opSuccessor:
		req.Key, err = r.ReadKey()
	case opPredecessorBatch, opSuccessorBatch:
		if req.Key, err = r.ReadKey(); err != nil {
			return err
		}
		var n uint64
		if n, err = r.ReadUvarint(); err != nil {
			return err
		}
		if n > 1<<20 {
			return fmt.Errorf("%w: batch count %d", codec.ErrCodec, n)
		}
		req.Count = int(n)
	case opInsert:
		if req.Key, err = r.ReadKey(); err != nil {
			return err
		}
		var v uint64
		if v, err = r.ReadUvarint(); err != nil {
			return err
		}
		req.Version = version.V(v)
		req.Value, err = r.ReadString()
	case opCoalesce:
		if req.Key, err = r.ReadKey(); err != nil {
			return err
		}
		if req.Hi, err = r.ReadKey(); err != nil {
			return err
		}
		var v uint64
		if v, err = r.ReadUvarint(); err != nil {
			return err
		}
		req.Version = version.V(v)
	case opPrepare, opCommit, opAbort, opStatus, opName:
		// No fields.
	default:
		return fmt.Errorf("%w: unknown request tag %d", codec.ErrCodec, tag)
	}
	return err
}

// readResponse decodes the next response message from r into *resp,
// overwriting every field.
func readResponse(r *codec.Reader, resp *response) error {
	tag, err := r.ReadByte()
	if err != nil {
		return err
	}
	*resp = response{Op: op(tag)}
	if resp.ID, err = r.ReadUvarint(); err != nil {
		return err
	}
	c, err := r.ReadByte()
	if err != nil {
		return err
	}
	resp.Code = code(c)
	if resp.Code != codeOK {
		resp.Msg, err = r.ReadString()
		return err
	}
	switch resp.Op {
	case opLookup, opLookupOnce:
		if resp.Found, err = r.ReadBool(); err != nil {
			return err
		}
		var v uint64
		if v, err = r.ReadUvarint(); err != nil {
			return err
		}
		resp.Version = version.V(v)
		resp.Value, err = r.ReadString()
	case opPredecessor, opSuccessor:
		if resp.Key, err = r.ReadKey(); err != nil {
			return err
		}
		var v uint64
		if v, err = r.ReadUvarint(); err != nil {
			return err
		}
		resp.Version = version.V(v)
		if resp.Value, err = r.ReadString(); err != nil {
			return err
		}
		if v, err = r.ReadUvarint(); err != nil {
			return err
		}
		resp.GapVersion = version.V(v)
	case opPredecessorBatch, opSuccessorBatch:
		// Every neighbor needs at least 4 bytes (key kind, version,
		// empty value, gap version).
		var n int
		if n, err = r.ReadCount(4); err != nil {
			return err
		}
		if n > 0 {
			resp.Neighbors = make([]rep.NeighborResult, n)
		}
		for i := range resp.Neighbors {
			nb := &resp.Neighbors[i]
			if nb.Key, err = r.ReadKey(); err != nil {
				return err
			}
			var v uint64
			if v, err = r.ReadUvarint(); err != nil {
				return err
			}
			nb.Version = version.V(v)
			if nb.Value, err = r.ReadString(); err != nil {
				return err
			}
			if v, err = r.ReadUvarint(); err != nil {
				return err
			}
			nb.GapVersion = version.V(v)
		}
	case opCoalesce:
		var n int
		if n, err = r.ReadCount(1); err != nil {
			return err
		}
		if n > 0 {
			resp.DeletedKeys = make([]keyspace.Key, n)
		}
		for i := range resp.DeletedKeys {
			if resp.DeletedKeys[i], err = r.ReadKey(); err != nil {
				return err
			}
		}
	case opStatus:
		var v uint64
		if v, err = r.ReadUvarint(); err != nil {
			return err
		}
		resp.TxnStatus = rep.TxnStatus(v)
	case opName:
		resp.Name, err = r.ReadString()
	case opInsert, opPrepare, opCommit, opAbort:
		// No result fields.
	default:
		return fmt.Errorf("%w: unknown response tag %d", codec.ErrCodec, tag)
	}
	return err
}
