// Package transport connects directory suites to directory
// representatives.
//
// The paper writes remote operations as "Send(<procedure invocation>)
// to(<object instance>)" (section 3). This package supplies three
// implementations of that primitive, all satisfying rep.Directory:
//
//   - Local: a direct in-process hop with optional fault injection
//     (crashed replica, added latency), used by simulations and tests.
//   - Client/Server: a multiplexed TCP transport carrying the binary
//     wire codec (wire.go), used by the cmd/repdir-server and
//     cmd/repdir-cli executables.
//
// Errors that the replication algorithm reacts to (wait-die aborts,
// unavailable replicas, missing coalesce bounds) are mapped to wire codes
// so errors.Is keeps working across the network.
package transport

import (
	"errors"
	"fmt"

	"repdir/internal/lock"
	"repdir/internal/rep"
)

// ErrUnavailable reports that a representative cannot be reached: it is
// crashed, partitioned away, or its server is gone. Directory suites react
// by selecting a different quorum.
var ErrUnavailable = errors.New("transport: representative unavailable")

// ErrExpired reports that a request's propagated deadline had already
// passed (or provably could not be met) when the server would have
// started it, so the server refused to burn a worker on an answer the
// client can no longer use. Clients treat it like overload: retrying is
// pointless without both remaining deadline and retry budget.
var ErrExpired = errors.New("transport: request deadline expired before service")

// ErrOverloaded reports that the server shed the request under
// admission control: its dispatch queue's measured delay exceeded the
// target for a sustained interval, so the newest arrivals are rejected
// instead of queued (queueing them would only push every request past
// its deadline — the metastable-collapse mode). Clients must not retry
// on overload except against an explicit retry budget: blind retries
// multiply the very load being shed.
var ErrOverloaded = errors.New("transport: server overloaded, request shed")

// code is the wire form of the errors the algorithm must distinguish.
type code int

const (
	codeOK code = iota
	codeDie
	codeSentinel
	codeMissingBound
	codeBadRange
	codeNoNeighbor
	codeUnavailable
	codeTxnDecided
	codeUnknownTxn
	codeRecovering
	codeOther
	// Codes after codeOther were appended later (epoch fencing, then
	// deadline propagation and admission control), so existing code
	// values never change.
	codeStaleEpoch
	codeExpired
	codeOverloaded
)

// encodeError maps an error to its wire code plus display message.
func encodeError(err error) (code, string) {
	switch {
	case err == nil:
		return codeOK, ""
	case errors.Is(err, lock.ErrDie):
		return codeDie, err.Error()
	case errors.Is(err, rep.ErrSentinel):
		return codeSentinel, err.Error()
	case errors.Is(err, rep.ErrMissingBound):
		return codeMissingBound, err.Error()
	case errors.Is(err, rep.ErrBadRange):
		return codeBadRange, err.Error()
	case errors.Is(err, rep.ErrNoNeighbor):
		return codeNoNeighbor, err.Error()
	case errors.Is(err, ErrUnavailable):
		return codeUnavailable, err.Error()
	case errors.Is(err, rep.ErrTxnDecided):
		return codeTxnDecided, err.Error()
	case errors.Is(err, rep.ErrUnknownTxn):
		return codeUnknownTxn, err.Error()
	case errors.Is(err, rep.ErrRecovering):
		return codeRecovering, err.Error()
	case errors.Is(err, rep.ErrStaleEpoch):
		return codeStaleEpoch, err.Error()
	case errors.Is(err, ErrExpired):
		return codeExpired, err.Error()
	case errors.Is(err, ErrOverloaded):
		return codeOverloaded, err.Error()
	default:
		return codeOther, err.Error()
	}
}

// decodeError reconstructs an error whose identity survives errors.Is.
func decodeError(c code, msg string) error {
	switch c {
	case codeOK:
		return nil
	case codeDie:
		return fmt.Errorf("%w (remote: %s)", lock.ErrDie, msg)
	case codeSentinel:
		return fmt.Errorf("%w (remote: %s)", rep.ErrSentinel, msg)
	case codeMissingBound:
		return fmt.Errorf("%w (remote: %s)", rep.ErrMissingBound, msg)
	case codeBadRange:
		return fmt.Errorf("%w (remote: %s)", rep.ErrBadRange, msg)
	case codeNoNeighbor:
		return fmt.Errorf("%w (remote: %s)", rep.ErrNoNeighbor, msg)
	case codeUnavailable:
		return fmt.Errorf("%w (remote: %s)", ErrUnavailable, msg)
	case codeTxnDecided:
		return fmt.Errorf("%w (remote: %s)", rep.ErrTxnDecided, msg)
	case codeUnknownTxn:
		return fmt.Errorf("%w (remote: %s)", rep.ErrUnknownTxn, msg)
	case codeRecovering:
		return fmt.Errorf("%w (remote: %s)", rep.ErrRecovering, msg)
	case codeStaleEpoch:
		return fmt.Errorf("%w (remote: %s)", rep.ErrStaleEpoch, msg)
	case codeExpired:
		return fmt.Errorf("%w (remote: %s)", ErrExpired, msg)
	case codeOverloaded:
		return fmt.Errorf("%w (remote: %s)", ErrOverloaded, msg)
	default:
		return errors.New(msg)
	}
}
