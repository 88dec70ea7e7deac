// The failure vocabulary of every leg — device → gateway → shard — in the
// package both ends of each leg import. A failure is an error this
// process built (*Error, *StaleLeaderError, *overload.Error,
// wire.ErrBodyTooLarge), an answer the HTTP client got back (an *Error
// that is Answered), or no answer at all; Classify gives it one class,
// and every site that decides something about a failure reads the
// verdict: how the faces answer it over HTTP and on the shard stream,
// whether the stream and the HTTP client retry it and after what wait,
// where the device uplink goes next, what the crowd driver does and
// whether the lease steps down.
package transport

import (
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"time"

	"occusim/internal/overload"
	"occusim/internal/wire"
)

// Error is a failure that names its HTTP answer. This process builds one
// where a failure is not a plain 400 — 503 for a log that refused an
// append or a fleet with no healthy shard, 502 for a shard that cannot be
// read or answered out of protocol, 409 for a request the server's state
// refuses or a standby gateway's refusal (Leader: where leadership lives)
// — and the HTTP client returns one for every non-2xx answer (Answered),
// with the Retry-After, leader hint and, on a 409, granted epoch it
// carried.
type Error struct {
	Code       int
	RetryAfter time.Duration
	// Hinted says a Retry-After was given: "Retry-After: 0" asks for no
	// wait, no header for the computed backoff.
	Hinted   bool
	Leader   string
	Granted  uint64
	Answered bool
	Err      error
}

func (e *Error) Error() string { return e.Err.Error() }
func (e *Error) Unwrap() error { return e.Err }

// Is and As read a 409 that named the granted epoch as the stale-leader
// rejection it renders.
func (e *Error) Is(target error) bool { return target == ErrStaleLeader && e.Granted > 0 }

func (e *Error) As(target any) bool {
	stale, ok := target.(**StaleLeaderError)
	if ok && e.Granted > 0 {
		*stale = &StaleLeaderError{Granted: e.Granted, Leader: e.Leader}
	}
	return ok && e.Granted > 0
}

// ErrStaleLeader is the sentinel every stale-epoch rejection matches
// (errors.Is). The concrete error is *StaleLeaderError.
var ErrStaleLeader = errors.New("bms: stale gateway leadership epoch")

// StaleLeaderError rejects a lease claim or a fenced write stamped with
// an epoch below the highest the shard has granted. It is rendered as a
// 409 with HeaderLeaderEpoch and HeaderLeaderHint, and the HTTP client
// reads it back from them.
type StaleLeaderError struct {
	// Granted is the highest epoch the shard has granted.
	Granted uint64
	// Leader is the advertised URL of the gateway holding Granted, ""
	// when unknown (the grant advanced through a stamped write rather
	// than an explicit claim).
	Leader string
}

func (e *StaleLeaderError) Error() string {
	if e.Leader != "" {
		return fmt.Sprintf("bms: stale gateway epoch: shard granted epoch %d to %s", e.Granted, e.Leader)
	}
	return fmt.Sprintf("bms: stale gateway epoch: shard granted epoch %d", e.Granted)
}

// Is makes errors.Is(err, ErrStaleLeader) match.
func (e *StaleLeaderError) Is(target error) bool { return target == ErrStaleLeader }

// noAnswer is an answer whose body stopped mid-read: as good as none.
type noAnswer struct{ error }

func (e noAnswer) Unwrap() error { return e.error }

// Class is what a failure tells the sender of the request.
type Class uint8

const (
	OK          Class = iota
	Shed              // come back after the hint: 429 + Retry-After
	Stale             // take it to the leader: 409 + X-Leader-Epoch, X-Leader-Hint
	TooLarge          // send less: 413
	Rejected          // do not resend it: 400, or the status its *Error names
	Unavailable       // the serving side failed: the status its *Error names, 502 for an answered 5xx
	Unreachable       // no answer came: 502
)

// Verdict is a failure's class and what the sites read off it.
type Verdict struct {
	Class Class
	// Status is what a face answers.
	Status int
	// After is the failure's Retry-After, and Hinted whether it gave one.
	After  time.Duration
	Hinted bool
	// Answered: the status came back from the server the request went to.
	Answered bool
	// Granted is the grant a stale write lost to (0 for none), Leader
	// where leadership lives.
	Granted uint64
	Leader  string
}

// Classify is the one classifier. Its precedence: a shed admission, a
// stale epoch and a body past the limit win wherever they sit in the
// chain — a shed or stale wrapped in a named 502, such as a failed
// federated read, is still the shed or the stale —, then the status an
// *Error this process built names, then a request that got no answer (a
// connection that failed, a body cut off mid-read, a target URL that does
// not parse), then the status an answer came back with; anything else is
// the client's fault.
func Classify(err error) Verdict {
	if err == nil {
		return Verdict{Class: OK, Status: http.StatusOK}
	}
	if after, ok := overload.IsOverload(err); ok {
		return Verdict{Class: Shed, Status: http.StatusTooManyRequests, After: after, Hinted: true}
	}
	var stale *StaleLeaderError
	if errors.As(err, &stale) {
		return Verdict{Class: Stale, Status: http.StatusConflict, Granted: stale.Granted, Leader: stale.Leader}
	}
	if errors.Is(err, wire.ErrBodyTooLarge) {
		return Verdict{Class: TooLarge, Status: http.StatusRequestEntityTooLarge}
	}
	var e *Error
	named := errors.As(err, &e)
	if !named || e.Answered {
		var down *url.Error
		if errors.As(err, &down) || errors.As(err, new(noAnswer)) {
			return Verdict{Class: Unreachable, Status: http.StatusBadGateway}
		}
		if !named {
			return Verdict{Class: Rejected, Status: http.StatusBadRequest}
		}
	}
	v := Verdict{Status: e.Code, After: e.RetryAfter, Hinted: e.Hinted, Answered: e.Answered, Leader: e.Leader}
	switch {
	case e.Code == http.StatusTooManyRequests:
		v.Class = Shed
	case e.Code == http.StatusConflict:
		v.Class = Stale
	case e.Code/100 == 4:
		v.Class = Rejected
		if e.Answered {
			v.Status = http.StatusBadRequest
		}
	default:
		v.Class = Unavailable
		if e.Answered {
			v.Status = http.StatusBadGateway
		}
	}
	return v
}

// RetryAfter is the wait a face's Retry-After answers a failure with, 0
// for none: on a shed, or where a failure this process built names a
// hint, that hint in whole seconds rounded up, at least 1.
func RetryAfter(v Verdict) time.Duration {
	if v.Class != Shed && (v.After <= 0 || v.Answered) {
		return 0
	}
	return max(time.Second, (v.After+time.Second-1)/time.Second*time.Second)
}

// retried reports whether an exchange retries a failure — a shed, a
// request that got no answer, an answered 5xx — with the verdict its
// wait reads. Target.Do and Stream.Exchange retry by it.
func retried(err error) (Verdict, bool) {
	v := Classify(err)
	return v, v.Class == Shed || v.Class == Unreachable || v.Class == Unavailable && v.Answered
}
