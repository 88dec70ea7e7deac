// Frozen surface: a name only benchmark/ uses, which no change may edit,
// as a thin wrapper over its live form. Retiring it is deleting this file.
package transport

import (
	"net/http"
	"sync"
)

// ShardSplitter is &HTTPUplink{Codec: CodecBinary} under the name
// benchmark/system.go constructs by literal. Only benchmark/ uses it.
type ShardSplitter struct {
	BaseURL string
	Client  *http.Client
	Retry   RetryPolicy

	once sync.Once
	up   HTTPUplink
}

func (s *ShardSplitter) uplink() *HTTPUplink {
	s.once.Do(func() { s.up.BaseURL, s.up.Client, s.up.Retry, s.up.Codec = s.BaseURL, s.Client, s.Retry, CodecBinary })
	return &s.up
}
func (s *ShardSplitter) Name() string                { return s.uplink().Name() }
func (s *ShardSplitter) Send(r Report) error         { return s.uplink().Send(r) }
func (s *ShardSplitter) SendBatch(rs []Report) error { return s.uplink().SendBatch(rs) }
