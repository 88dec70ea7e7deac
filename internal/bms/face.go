// The device-facing HTTP face, once for a box and a fleet gateway: one
// route table (Routes) over a small verb interface (Face), one status map
// (transport.Classify) rendered over HTTP (WriteFailure) and on the shard
// stream (appendStreamReply), one JSON writer (WriteJSON) and one bounded body
// reader (readBody). A client cannot tell a fleet from a box because there
// is nothing else for the two to answer through.
package bms

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"occusim/internal/fingerprint"
	"occusim/internal/ibeacon"
	"occusim/internal/obs"
	"occusim/internal/occupancy"
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

// conflict marks err as a request the server's state refuses.
func conflict(err error) error { return &transport.Error{Code: http.StatusConflict, Err: err} }

// WriteFailure answers a failed request as transport.Classify says — the
// status map of both faces, so a fleet answers what one server would: the
// status, a Retry-After in whole seconds rounded up (at least 1) on a shed
// or where a failure this process built names one, the leader headers of
// a stale write or a standby's refusal, and the error as the JSON body.
func WriteFailure(w http.ResponseWriter, err error) {
	v := transport.Classify(err)
	h := w.Header()
	if v.Class == transport.Shed || v.After > 0 && !v.Answered {
		h.Set("Retry-After", strconv.FormatInt(max(1, int64((v.After+time.Second-1)/time.Second)), 10))
	}
	if v.Granted > 0 {
		h.Set(transport.HeaderLeaderEpoch, strconv.FormatUint(v.Granted, 10))
	}
	if v.Leader != "" {
		h.Set(transport.HeaderLeaderHint, v.Leader)
	}
	writeError(w, v.Status, err)
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
