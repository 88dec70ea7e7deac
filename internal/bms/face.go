// The device-facing HTTP face, once for a box and a fleet gateway: one
// route table (Routes) over a small verb interface (Face), one status map
// (verdictOf) rendered over HTTP (WriteFailure) and on the shard stream
// (appendStreamReply), one JSON writer (WriteJSON) and one bounded body
// reader (readBody). A client cannot tell a fleet from a box because there
// is nothing else for the two to answer through.
package bms

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"time"

	"occusim/internal/fingerprint"
	"occusim/internal/ibeacon"
	"occusim/internal/obs"
	"occusim/internal/occupancy"
	"occusim/internal/overload"
	"occusim/internal/transport"
	"occusim/internal/wire"
)

// Face is what the route table asks of whatever stands behind it — one
// server, or a fleet gateway — in the terms it renders: a body to encode,
// rooms to acknowledge, or an error for the status map.
type Face interface {
	// Health is the GET /api/v1/health body, and whether the face can
	// take traffic (false answers 503).
	Health() (body any, up bool)
	// UploadJSON takes a decoded JSON upload and UploadFrame a wire
	// upload's body; each appends the predicted room per report, in upload
	// order, to rooms.
	UploadJSON(r *http.Request, u *transport.JSONUpload, rooms []string) ([]string, error)
	UploadFrame(r *http.Request, body []byte, rooms []string) ([]string, error)
	// The reads: three renderings of one summary, and the event history.
	Occupancy() (OccupancySnapshot, error)
	DwellTotals() (map[string]time.Duration, error)
	Rollup() (Rollup, error)
	Events() ([]occupancy.Event, error)
	// PutModel installs a distributed model snapshot.
	PutModel(ModelSnapshot) (ack any, err error)
	// Trained answers a training run the table made on the trainer, after
	// whatever the face does with the new model.
	Trained(TrainResult) (ack any, err error)
	// Metrics feeds GET /metrics and GET /api/v1/telemetry; nil serves an
	// empty exposition and snapshot rather than a 404.
	Metrics() *obs.Metrics
}

// Routes is the one device-facing route table: health, both upload routes,
// occupancy, events, dwell, rollup, PUT model, /metrics and telemetry, and
// — given the trainer, the server whose store collects fingerprints and
// fits the model — fingerprints and train. The caller adds the routes only
// its face has.
func Routes(f Face, trainer *Server) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /api/v1/health", func(w http.ResponseWriter, r *http.Request) {
		body, up := f.Health()
		code := http.StatusOK
		if !up {
			code = http.StatusServiceUnavailable
		}
		WriteJSON(w, code, body)
	})
	mux.HandleFunc("POST /api/v1/observations", func(w http.ResponseWriter, r *http.Request) {
		uploadJSON(f, w, r, false)
	})
	mux.HandleFunc("POST /api/v1/observations:batch", func(w http.ResponseWriter, r *http.Request) {
		if wire.IsContentType(r.Header.Get("Content-Type")) {
			uploadFrame(f, w, r)
		} else {
			uploadJSON(f, w, r, true)
		}
	})
	read(mux, "/api/v1/occupancy", f.Occupancy)
	read(mux, "/api/v1/rollup", f.Rollup)
	read(mux, "/api/v1/dwell", func() (map[string]any, error) {
		totals, err := f.DwellTotals()
		rooms := make(map[string]float64, len(totals))
		for room, d := range totals {
			rooms[room] = d.Seconds()
		}
		return map[string]any{"rooms": rooms}, err
	})
	read(mux, "/api/v1/events", func() (EventsReply, error) {
		events, err := f.Events()
		out := EventsReply{Events: make([]EventJSON, 0, len(events))}
		for _, e := range events {
			out.Events = append(out.Events, eventJSON(e))
		}
		return out, err
	})
	mux.HandleFunc("PUT /api/v1/model", func(w http.ResponseWriter, r *http.Request) {
		var snap ModelSnapshot
		if err := DecodeJSON(r, &snap); err != nil {
			WriteUploadError(w, "decode", err)
			return
		}
		ack, err := f.PutModel(snap)
		respond(w, ack, err)
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		f.Metrics().ExpositionHandler()(w, r)
	})
	mux.HandleFunc("GET /api/v1/telemetry", func(w http.ResponseWriter, r *http.Request) {
		f.Metrics().TelemetryHandler()(w, r)
	})
	if trainer != nil {
		mux.HandleFunc("POST /api/v1/fingerprints", trainer.handleFingerprint)
		mux.HandleFunc("POST /api/v1/train", func(w http.ResponseWriter, r *http.Request) {
			var req trainRequest
			if r.ContentLength != 0 {
				if err := DecodeJSON(r, &req); err != nil {
					WriteUploadError(w, "decode", err)
					return
				}
			}
			res, err := trainer.Train(req.C, req.Gamma, req.Seed)
			if err != nil {
				WriteFailure(w, err)
				return
			}
			ack, err := f.Trained(res)
			respond(w, ack, err)
		})
	}
	return mux
}

// read registers a GET answered by one verb.
func read[T any](mux *http.ServeMux, path string, verb func() (T, error)) {
	mux.HandleFunc("GET "+path, func(w http.ResponseWriter, r *http.Request) {
		body, err := verb()
		respond(w, body, err)
	})
}

// write registers a POST whose JSON body decodes into In and is answered
// by one verb, which is handed the write's leadership stamp: decode, then
// verb, then respond.
func write[In, Out any](mux *http.ServeMux, path string, verb func(epoch uint64, in In) (Out, error)) {
	mux.HandleFunc("POST "+path, func(w http.ResponseWriter, r *http.Request) {
		var in In
		if err := DecodeJSON(r, &in); err != nil {
			WriteUploadError(w, "decode", err)
			return
		}
		body, err := verb(gatewayEpochFrom(r), in)
		respond(w, body, err)
	})
}

// respond answers 200 with body, or the failure.
func respond(w http.ResponseWriter, body any, err error) {
	if err != nil {
		WriteFailure(w, err)
		return
	}
	WriteJSON(w, http.StatusOK, body)
}

// uploadJSON serves both JSON upload routes — batch says which: the body
// decodes into a pooled target, the array of reports on the batch route
// and one report object otherwise; the face takes it, and the ack is
// appended from the rooms it returns (WriteJSONAck).
func uploadJSON(f Face, w http.ResponseWriter, r *http.Request, batch bool) {
	u := transport.GetJSONUpload()
	defer u.Release()
	decode := u.UnmarshalReport
	if batch {
		decode = u.UnmarshalBatch
	}
	if err := readBody(r, decode); err != nil {
		WriteUploadError(w, "decode", err)
		return
	}
	rooms := getRooms()
	defer putRooms(rooms)
	var err error
	if *rooms, err = f.UploadJSON(r, u, *rooms); err != nil {
		WriteFailure(w, err)
		return
	}
	WriteJSONAck(w, *rooms, batch)
}

// uploadFrame serves the binary branch of the batch route: the frame is
// read into a pooled buffer, the face takes it, and the same buffer
// carries the run-length rooms column back (wire.AppendRooms) — a wire
// request gets a wire ack. Failures keep their JSON bodies.
func uploadFrame(f Face, w http.ResponseWriter, r *http.Request) {
	buf := wire.GetBuf()
	defer wire.PutBuf(buf)
	body, err := wire.ReadBody(r.Body, r.ContentLength, wire.MaxBodyBytes, buf)
	if err != nil {
		WriteUploadError(w, "read body", err)
		return
	}
	rooms := getRooms()
	defer putRooms(rooms)
	if *rooms, err = f.UploadFrame(r, body, *rooms); err != nil {
		WriteFailure(w, err)
		return
	}
	*buf = wire.AppendRooms((*buf)[:0], *rooms)
	w.Header()["Content-Type"] = wire.AckContentType
	_, _ = w.Write(*buf)
}

// roomsPool holds the columns the upload routes collect an ack's rooms in.
var roomsPool = sync.Pool{New: func() any { return new([]string) }}

func getRooms() *[]string { return roomsPool.Get().(*[]string) }

func putRooms(rooms *[]string) {
	if cap(*rooms) <= pooledScratchMax {
		clear(*rooms)
		*rooms = (*rooms)[:0]
		roomsPool.Put(rooms)
	}
}

// fingerprintRequest is the POST /api/v1/fingerprints payload.
type fingerprintRequest struct {
	Room      string             `json:"room"`
	AtSeconds float64            `json:"atSeconds"`
	Distances map[string]float64 `json:"distances"`
}

// handleFingerprint collects one labelled sample into this server's store.
func (s *Server) handleFingerprint(w http.ResponseWriter, r *http.Request) {
	var req fingerprintRequest
	if err := DecodeJSON(r, &req); err != nil {
		WriteUploadError(w, "decode", err)
		return
	}
	sample := fingerprint.Sample{
		Room:      req.Room,
		At:        time.Duration(req.AtSeconds * float64(time.Second)),
		Distances: map[ibeacon.BeaconID]float64{},
	}
	for key, d := range req.Distances {
		id, err := ibeacon.ParseBeaconID(key)
		if err != nil {
			WriteFailure(w, err)
			return
		}
		sample.Distances[id] = d
	}
	if err := s.AddFingerprint(sample); err != nil {
		WriteFailure(w, err)
		return
	}
	WriteJSON(w, http.StatusOK, map[string]int{"stored": s.st.FingerprintCount()})
}

// trainRequest is the POST /api/v1/train payload.
type trainRequest struct {
	C     float64 `json:"c"`
	Gamma float64 `json:"gamma"`
	Seed  uint64  `json:"seed"`
}

// --- the status map ---------------------------------------------------

// Error is a failure that names its own answer: the HTTP status — 503 for
// a log that refused an append or a fleet with no healthy shard, 502 for a
// shard that cannot be reached or answered out of protocol, 409 for a
// request the server's state refuses —, the Retry-After to send when a
// retry is worth it, and, for a standby gateway's refusal, where
// leadership lives. A 5xx is unavailable, anything else rejected.
type Error struct {
	Code       int
	RetryAfter time.Duration
	Leader     string
	Err        error
}

func (e *Error) Error() string { return e.Err.Error() }
func (e *Error) Unwrap() error { return e.Err }

// conflict marks err as a request the server's state refuses.
func conflict(err error) error { return &Error{Code: http.StatusConflict, Err: err} }

// class is what a failure tells the client that sent the request.
type class uint8

const (
	classOK          class = iota
	classShed              // come back after the hint: 429 + Retry-After
	classStale             // take it to the leader: 409 + X-Leader-Epoch, X-Leader-Hint
	classTooLarge          // send less: 413
	classRejected          // do not resend it: 400, or the status its *Error names
	classUnavailable       // the serving side failed: 503, 502 upstream
)

// verdict is a failure's class and what its renderings need: the HTTP
// status, the wait a Retry-After carries, the grant a stale write lost to
// and where leadership lives.
type verdict struct {
	class  class
	status int
	after  time.Duration
	stale  *StaleLeaderError
	leader string
}

// verdictOf is the one status map. Both faces answer every failure by it
// — over HTTP through WriteFailure, on the shard stream through
// appendStreamReply — so a fleet answers what one server would: a shed
// admission (its own gate or a shard's) is 429 with the hint, a fenced
// write 409 with the leader, a body past the limit 413, a failure of the
// serving side (*Error with a 5xx, a shard that cannot be reached, a
// shard's own 5xx) 503 or 502, and anything else the client's fault, 400.
func verdictOf(err error) verdict {
	if err == nil {
		return verdict{class: classOK, status: http.StatusOK}
	}
	if after, ok := overload.IsOverload(err); ok {
		return verdict{class: classShed, status: http.StatusTooManyRequests, after: after}
	}
	var stale *StaleLeaderError
	if errors.As(err, &stale) {
		return verdict{class: classStale, status: http.StatusConflict, stale: stale, leader: stale.Leader}
	}
	if errors.Is(err, wire.ErrBodyTooLarge) {
		return verdict{class: classTooLarge, status: http.StatusRequestEntityTooLarge}
	}
	var named *Error
	if errors.As(err, &named) {
		v := verdict{class: classRejected, status: named.Code, after: named.RetryAfter, leader: named.Leader}
		if named.Code >= 500 {
			v.class = classUnavailable
		}
		return v
	}
	var down *url.Error
	if errors.As(err, &down) {
		return verdict{class: classUnavailable, status: http.StatusBadGateway}
	}
	if code, ok := transport.StatusCode(err); ok {
		switch {
		case code == http.StatusTooManyRequests:
			after, _ := transport.RetryAfter(err)
			return verdict{class: classShed, status: code, after: after}
		case code/100 != 4:
			return verdict{class: classUnavailable, status: http.StatusBadGateway}
		}
	}
	return verdict{class: classRejected, status: http.StatusBadRequest}
}

// WriteFailure answers a failed request as verdictOf says: the status, a
// Retry-After in whole seconds rounded up (at least 1) on a shed or where
// the failure names one, the leader headers of a stale write or a
// standby's refusal, and the error as the JSON body.
func WriteFailure(w http.ResponseWriter, err error) {
	v := verdictOf(err)
	h := w.Header()
	if v.class == classShed || v.after > 0 {
		h.Set("Retry-After", strconv.FormatInt(max(1, int64((v.after+time.Second-1)/time.Second)), 10))
	}
	if v.stale != nil {
		h.Set(transport.HeaderLeaderEpoch, strconv.FormatUint(v.stale.Granted, 10))
	}
	if v.leader != "" {
		h.Set(transport.HeaderLeaderHint, v.leader)
	}
	writeError(w, v.status, err)
}

// WriteUploadError answers a body that could not be taken in (what names
// the step that failed): 413 past the size limit, 400 otherwise.
func WriteUploadError(w http.ResponseWriter, what string, err error) {
	WriteFailure(w, fmt.Errorf("%s: %w", what, err))
}

// --- the reader and the writer ------------------------------------------

// readBody reads a JSON request body whole into a pooled buffer, under the
// size limit every body has — an announced length past it is refused
// unread, an unannounced one cut off there (wire.ErrBodyTooLarge: 413
// through WriteUploadError) — and hands it to decode. Every JSON body
// either face takes in is read here.
func readBody(r *http.Request, decode func([]byte) error) error {
	buf := wire.GetBuf()
	defer wire.PutBuf(buf)
	body, err := wire.ReadBody(r.Body, r.ContentLength, wire.MaxBodyBytes, buf)
	if err != nil {
		return err
	}
	return decode(body)
}

// DecodeJSON unmarshals a request's JSON body into v; anything after the
// first value is an error.
func DecodeJSON(r *http.Request, v any) error {
	return readBody(r, func(body []byte) error { return json.Unmarshal(body, v) })
}

// bufPool holds the buffers WriteJSON encodes through, so a busy endpoint
// does not allocate a fresh buffer (and encoder state) per response.
var bufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// pooledBufMax keeps pathological one-off giants out of the pool.
const pooledBufMax = 1 << 20

// WriteJSON encodes v through a pooled buffer and writes it in one call.
// It is the one writer of both faces' JSON bodies.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	buf := bufPool.Get().(*bytes.Buffer)
	defer func() {
		if buf.Cap() <= pooledBufMax {
			buf.Reset()
			bufPool.Put(buf)
		}
	}()
	if err := json.NewEncoder(buf).Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_, _ = w.Write(buf.Bytes())
}

func writeError(w http.ResponseWriter, code int, err error) {
	WriteJSON(w, code, map[string]string{"error": err.Error()})
}
