// Frozen surface: names only benchmark/ calls, which no change may edit,
// each a thin wrapper over its live form. Retiring them is deleting this
// file and Shard's IngestBatch line.
package fleet

import (
	"fmt"

	"occusim/internal/building"
	"occusim/internal/store"
	"occusim/internal/transport"
	"occusim/internal/wire"
)

// FrameIngester is Shard's report path under a name of its own. Only
// benchmark/ names it.
type FrameIngester interface {
	IngestFrame(frame []byte, reports int) ([]string, error)
}

// NewLocalPool is OpenLocalPool without a data directory: n volatile
// in-process shards. Only benchmark/ calls it.
func NewLocalPool(b *building.Building, n, debounce, retain int) (*LocalPool, error) {
	return OpenLocalPool(b, n, debounce, retain, "", store.FsyncBatch)
}

// SetCodec does nothing: the shard leg has one form, a wire frame on the
// stream. Only benchmark/ calls it.
func (h *HTTPShard) SetCodec(transport.Codec) {}

// IngestBatch implements Shard by ingestAsFrame. Only benchmark/ calls it.
func (l *LocalShard) IngestBatch(reports []transport.Report) ([]string, error) {
	return ingestAsFrame(l, reports)
}

// IngestBatch implements Shard by ingestAsFrame. Only benchmark/ calls it.
func (h *HTTPShard) IngestBatch(reports []transport.Report) ([]string, error) {
	return ingestAsFrame(h, reports)
}

// ingestAsFrame renders the reports into one wire frame and hands it to
// IngestFrame. An identity the frame cannot carry is the reporting
// client's error.
func ingestAsFrame(s FrameIngester, reports []transport.Report) ([]string, error) {
	b := wire.GetBatch()
	defer wire.PutBatch(b)
	if err := transport.EncodeReports(b, reports); err != nil {
		return nil, fmt.Errorf("fleet: batch: %w", err)
	}
	buf := wire.GetBuf()
	defer wire.PutBuf(buf)
	*buf = wire.AppendFrame(*buf, b)
	return s.IngestFrame(*buf, len(reports))
}
