// Write-ahead log: the store's crash-safety layer. A WAL is a data
// directory holding one append-only log file, wal.log, and a compacting
// snapshot. One file, not one per in-memory lock stripe: the write into
// the page cache that a file mutex serialises takes microseconds, the
// fsync a fraction of a millisecond, so concurrent appenders should meet
// in one file where one fsync commits all of them (syncUpTo). Replay
// order is append order, every kind of record interleaved as it
// happened.
//
// The WAL carries opaque payloads: framing, checksums, fsync policy,
// compaction and torn-tail recovery live here; record semantics (what
// an observation batch or a device install looks like on disk) belong
// to the owner (internal/bms), which writes records before mutating
// in-memory state and replays them through Replay at boot.
//
// Frames are the wire package's log frames (wire.AppendLogFrame):
//
//	[version 0x02][u32 payload length][u32 CRC32-C of gen+payload][u64 generation][payload]
//
// so one scanner (wire.Scan), one checksum and one tail contract serve
// uploads and logs. Each frame is written with a single Write call, so
// a killed process (SIGKILL, OOM) can never tear a record — the kernel
// completes the write it accepted. Torn frames can still appear after
// a power or kernel crash; recovery tolerates a torn or truncated FINAL
// frame (the tail is discarded and the file repaired), while a
// checksum-corrupted frame with valid data after it is silent damage
// in the middle of committed history and fails loudly.
//
// The generation is the compaction barrier. Compact writes the
// snapshot to snapshot-<gen+1> (atomically: temp file, fsync, rename),
// bumps the generation, then truncates the log. Replay skips frames
// whose generation is below the newest snapshot's, so a crash between
// the snapshot rename and the truncation — when the log still carries
// records the snapshot already contains — cannot double-apply or, for
// destructive records (evictions), re-apply stale mutations over the
// newer snapshot state.
package store

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"occusim/internal/obs"
	"occusim/internal/stripe"
	"occusim/internal/wire"
)

// walMetrics bundles the WAL's instrumentation handles. The WAL holds
// it behind an atomic pointer so Instrument can be called after the
// log is already appending; a nil load means telemetry is off and the
// hot path pays one predictable branch.
type walMetrics struct {
	appendLatency  *obs.Histogram // frame framed-to-durable, per policy
	fsyncLatency   *obs.Histogram // the fsync syscall alone
	groupCommit    *obs.Histogram // frames newly covered per fsync
	compactions    *obs.Counter   // successful compactions only
	compactErrors  *obs.Counter
	appendErrors   *obs.Counter // failed writes and failed batch fsyncs
	compactLatency *obs.Histogram
	tornRepairs    *obs.Counter
	size           *obs.Gauge // summed over every WAL on the registry
	rec            *obs.Recorder
}

// Instrument registers the WAL's series on m and starts feeding them.
// Torn-tail repairs found during a later Replay and failed compactions
// also land in m's flight recorder. Every WAL instrumented on one
// registry feeds the same series — wal_size_bytes is their sum — so an
// in-process shard pool reads as one log. Safe to call while appends
// are in flight: it takes the compaction barrier for the hand-over.
func (w *WAL) Instrument(m *obs.Metrics) {
	if w == nil || m == nil {
		return
	}
	w.appendMu.Lock()
	defer w.appendMu.Unlock()
	if prev := w.met.Load(); prev != nil {
		prev.size.Add(-w.size.Load())
	}
	wm := &walMetrics{
		appendLatency:  m.Timing("wal_append_seconds", "WAL frame append latency, including the fsync under the batch policy"),
		fsyncLatency:   m.Timing("wal_fsync_seconds", "WAL fsync syscall latency"),
		groupCommit:    m.Sizes("wal_group_commit_frames", "frames newly covered per completed fsync (one leader commits its followers' frames)"),
		compactions:    m.Counter("wal_compactions_total", "snapshot-and-truncate compactions completed"),
		compactErrors:  m.Counter("wal_compact_errors_total", "compactions that failed before the snapshot landed (the log is kept)"),
		appendErrors:   m.Counter("wal_append_errors_total", "appends that failed at the write or, under the batch policy, the fsync"),
		compactLatency: m.Timing("wal_compact_seconds", "snapshot-and-truncate compaction duration"),
		tornRepairs:    m.Counter("wal_torn_tail_repairs_total", "torn or truncated final frames discarded during replay"),
		size:           m.Gauge("wal_size_bytes", "frame bytes appended since the last compaction, summed over this registry's logs"),
		rec:            m.Recorder(),
	}
	wm.size.Add(w.size.Load())
	w.met.Store(wm)
}

// FsyncPolicy selects how eagerly WAL appends reach stable storage.
type FsyncPolicy int

const (
	// FsyncBatch syncs after every appended frame: a committed batch
	// survives power loss. The strongest and slowest policy.
	FsyncBatch FsyncPolicy = iota
	// FsyncInterval syncs on a background ticker (default 100 ms): at
	// most one interval of committed-and-acknowledged records can be
	// lost to a power or kernel crash. Process kills lose nothing.
	FsyncInterval
	// FsyncOff never syncs explicitly. Appends still reach the kernel
	// page cache on every frame, so state survives kill -9 of the
	// process; only a power or kernel crash can lose or tear the tail.
	FsyncOff
)

// ParseFsyncPolicy maps the -fsync flag values onto the policy.
func ParseFsyncPolicy(s string) (FsyncPolicy, error) {
	switch s {
	case "batch":
		return FsyncBatch, nil
	case "interval":
		return FsyncInterval, nil
	case "off":
		return FsyncOff, nil
	}
	return 0, fmt.Errorf("store: unknown fsync policy %q (want batch, interval or off)", s)
}

// String implements fmt.Stringer.
func (p FsyncPolicy) String() string {
	switch p {
	case FsyncBatch:
		return "batch"
	case FsyncInterval:
		return "interval"
	case FsyncOff:
		return "off"
	default:
		return fmt.Sprintf("fsyncPolicy(%d)", int(p))
	}
}

// ObsStripes is the store's observation lock-stripe count.
const ObsStripes = obsShards

// StripeFor maps a device name onto its observation stripe — the same
// mapping AddObservationBatch coalesces runs with.
func StripeFor(device string) int { return stripe.Index(device, obsShards) }

// logName is the one log file of a data directory.
const logName = "wal.log"

// WAL is a write-ahead log in a data directory. Safe for concurrent
// use.
type WAL struct {
	dir    string
	policy FsyncPolicy
	// stripes is the index range Append still checks; see Append.
	stripes int

	// appendMu is the compaction barrier. Owners hold it shared (Begin)
	// across one WHOLE log-then-apply operation — append plus the
	// in-memory mutation — so Compact (exclusive) only ever observes
	// quiesced owner state that includes every appended record. A
	// record appended under generation g whose apply raced past the
	// g+1 snapshot would otherwise be skipped at replay and lost.
	appendMu sync.RWMutex

	// mu orders writes to the log file and guards writeSeq.
	mu   sync.Mutex
	f    *os.File
	path string

	// Group commit: writeSeq counts frames written (under mu); synced
	// holds the highest writeSeq a completed fsync covered. Concurrent
	// appenders whose frame was already on disk when an earlier leader's
	// fsync returned skip their own — one fsync commits every frame
	// written before it started.
	writeSeq uint64
	syncMu   sync.Mutex
	synced   atomic.Uint64

	// gen is the current compaction generation, stamped into every
	// frame; guarded by appendMu (written only under the exclusive
	// hold).
	gen uint64

	// size is the total frame bytes appended since the last compaction
	// — the owner's compaction trigger.
	size atomic.Int64

	// met holds the telemetry handles once Instrument ran; a nil load
	// keeps the append path at one branch.
	met atomic.Pointer[walMetrics]

	// interval-policy syncer.
	stop chan struct{}
	done chan struct{}

	closeOnce sync.Once
}

// syncUpTo blocks until a completed fsync covers frame seq. The caller
// either finds it already covered, or becomes the next leader: it reads
// the current write frontier, fsyncs, and publishes the frontier so the
// followers queued on syncMu return without syncing. mu is not held
// across the fsync, so appenders keep writing behind it.
func (w *WAL) syncUpTo(seq uint64) error {
	if w.synced.Load() >= seq {
		return nil
	}
	w.syncMu.Lock()
	defer w.syncMu.Unlock()
	prev := w.synced.Load()
	if prev >= seq {
		return nil
	}
	w.mu.Lock()
	covered := w.writeSeq
	w.mu.Unlock()
	wm := w.met.Load()
	var start time.Time
	if wm != nil {
		start = time.Now()
	}
	if err := syncFile(w.f); err != nil {
		return err
	}
	if wm != nil {
		wm.fsyncLatency.Since(start)
		wm.groupCommit.Observe(int64(covered - prev))
	}
	w.synced.Store(covered)
	return nil
}

// DefaultFsyncInterval spaces background syncs under FsyncInterval.
const DefaultFsyncInterval = 100 * time.Millisecond

// OpenWAL opens (creating if needed) the log in dir. stripes bounds the
// index Append accepts (use ObsStripes); interval configures the
// FsyncInterval ticker (0 takes DefaultFsyncInterval). The returned WAL
// has NOT been replayed: the owner restores the newest snapshot
// (Snapshot), replays the tail (Replay), and only then starts
// appending.
func OpenWAL(dir string, stripes int, policy FsyncPolicy, interval time.Duration) (*WAL, error) {
	if stripes < 1 {
		return nil, fmt.Errorf("store: wal needs at least 1 stripe")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: wal dir: %w", err)
	}
	if err := clearStripedLayout(dir); err != nil {
		return nil, err
	}
	w := &WAL{
		dir:     dir,
		policy:  policy,
		stripes: stripes,
		path:    filepath.Join(dir, logName),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	f, err := os.OpenFile(w.path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: wal: %w", err)
	}
	w.f = f
	gen, _, err := w.newestSnapshot()
	if err != nil {
		_ = f.Close()
		return nil, err
	}
	w.gen = gen
	if policy == FsyncInterval {
		if interval <= 0 {
			interval = DefaultFsyncInterval
		}
		go w.syncLoop(interval)
	} else {
		close(w.done)
	}
	return w, nil
}

// clearStripedLayout deals with what a build from before the one-file
// log left in dir: stripe-NN.wal files and meta.wal. A graceful stop
// compacted them to empty, and empty leftovers are removed. A non-empty
// one holds committed records this build has no reader for, so opening
// refuses — before touching anything — rather than silently drop them.
func clearStripedLayout(dir string) error {
	old, err := filepath.Glob(filepath.Join(dir, "stripe-[0-9][0-9].wal"))
	if err != nil {
		return fmt.Errorf("store: wal: %w", err)
	}
	old = append(old, filepath.Join(dir, "meta.wal"))
	for _, path := range old {
		fi, err := os.Stat(path)
		if errors.Is(err, fs.ErrNotExist) {
			continue
		}
		if err != nil {
			return fmt.Errorf("store: wal: %w", err)
		}
		if fi.Size() > 0 {
			return fmt.Errorf("store: wal: %s holds %d bytes of records in the striped layout this build does not read: stop the shard gracefully with the build that wrote it (the drain compacts the logs into the snapshot), then start this one", path, fi.Size())
		}
	}
	for _, path := range old {
		if err := os.Remove(path); err != nil && !errors.Is(err, fs.ErrNotExist) {
			return fmt.Errorf("store: wal: %w", err)
		}
	}
	return nil
}

// Dir returns the WAL's data directory.
func (w *WAL) Dir() string { return w.dir }

// snapshotName formats the generation-stamped snapshot filename.
func snapshotName(gen uint64) string { return fmt.Sprintf("snapshot-%016d.snap", gen) }

// newestSnapshot locates the highest-generation snapshot file in the
// directory (gen 0 and ok=false when none exists). Lower-generation
// leftovers — a crash between rename and cleanup — are ignored here
// and removed by the next Compact.
func (w *WAL) newestSnapshot() (gen uint64, path string, err error) {
	entries, err := os.ReadDir(w.dir)
	if err != nil {
		return 0, "", fmt.Errorf("store: wal: %w", err)
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if len(name) == len(snapshotName(0)) &&
			filepath.Ext(name) == ".snap" && name[:9] == "snapshot-" {
			names = append(names, name)
		}
	}
	if len(names) == 0 {
		return 0, "", nil
	}
	sort.Strings(names) // zero-padded, so lexicographic == numeric
	newest := names[len(names)-1]
	if _, err := fmt.Sscanf(newest, "snapshot-%d.snap", &gen); err != nil {
		return 0, "", fmt.Errorf("store: wal: malformed snapshot name %q", newest)
	}
	return gen, filepath.Join(w.dir, newest), nil
}

// Snapshot opens the newest snapshot for reading (ok=false when the
// log has never been compacted).
func (w *WAL) Snapshot() (r io.ReadCloser, ok bool, err error) {
	_, path, err := w.newestSnapshot()
	if err != nil || path == "" {
		return nil, false, err
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, false, fmt.Errorf("store: wal: %w", err)
	}
	return f, true, nil
}

// Begin opens one log-then-apply operation and returns its end
// function. The guard blocks compaction for the operation's duration;
// every Append/AppendMeta call AND the in-memory apply of what it
// logged must happen between Begin and end. Operations run
// concurrently with each other (the guard is shared); only Compact and
// Replay exclude them.
func (w *WAL) Begin() (end func()) {
	w.appendMu.RLock()
	return w.appendMu.RUnlock
}

// Append is AppendMeta behind a range check on stripeIdx. The index is
// inert — there is one log, and nothing records it — and goes, with
// Replay's second callback, when ROADMAP item 3 lets benchmark/ (the
// one caller of both) change.
func (w *WAL) Append(stripeIdx int, payload []byte) error {
	if stripeIdx < 0 || stripeIdx >= w.stripes {
		return fmt.Errorf("store: wal: stripe %d out of range", stripeIdx)
	}
	return w.AppendMeta(payload)
}

// AppendMeta frames payload and appends it to the log — any record,
// whatever its kind — syncing per policy. It returns once the frame is
// written to the kernel (and, under FsyncBatch, to stable storage): the
// caller may then apply the mutation to in-memory state. The caller
// must hold a Begin guard.
func (w *WAL) AppendMeta(payload []byte) error {
	wm := w.met.Load()
	var start time.Time
	if wm != nil {
		start = time.Now()
	}
	buf := wire.GetBuf()
	defer wire.PutBuf(buf)
	*buf = wire.AppendLogFrame(*buf, w.gen, payload)
	frame := *buf

	w.mu.Lock()
	_, err := w.f.Write(frame)
	var seq uint64
	if err == nil {
		w.writeSeq++
		seq = w.writeSeq
	}
	w.mu.Unlock()
	if err == nil && w.policy == FsyncBatch {
		err = w.syncUpTo(seq)
	}
	if err != nil {
		if wm != nil {
			wm.appendErrors.Inc()
		}
		return fmt.Errorf("store: wal append: %w", err)
	}
	w.size.Add(int64(len(frame)))
	if wm != nil {
		wm.size.Add(int64(len(frame)))
		wm.appendLatency.Since(start)
	}
	return nil
}

// Size returns the frame bytes appended since the last compaction —
// the owner's compaction trigger.
func (w *WAL) Size() int64 { return w.size.Load() }

// Replay scans the log and hands every live frame's payload to apply,
// in the order the records were appended. Frames below the newest
// snapshot's generation are skipped: the snapshot already contains
// them. A torn or truncated final frame is discarded and the file
// truncated to its valid prefix; corruption before valid data fails
// loudly. The second callback is never called (see Append).
func (w *WAL) Replay(apply func(payload []byte) error, _ func(idx int, payload []byte) error) error {
	w.appendMu.Lock()
	defer w.appendMu.Unlock()
	w.mu.Lock()
	defer w.mu.Unlock()
	data, err := os.ReadFile(w.path)
	if err != nil {
		return fmt.Errorf("store: wal replay %s: %w", w.path, err)
	}
	off, err := scanLive(data, w.gen, apply)
	if err != nil {
		return fmt.Errorf("store: wal %s: %w", w.path, err)
	}
	if off < len(data) {
		// Discard the torn tail so future appends continue from a clean
		// frame boundary.
		if err := w.f.Truncate(int64(off)); err != nil {
			return fmt.Errorf("store: wal %s: truncate torn tail: %w", w.path, err)
		}
		if _, err := w.f.Seek(int64(off), io.SeekStart); err != nil {
			return fmt.Errorf("store: wal %s: %w", w.path, err)
		}
		if wm := w.met.Load(); wm != nil {
			wm.tornRepairs.Inc()
			wm.rec.Record(obs.EventWALRepair, map[string]any{
				"file":          logName,
				"dropped_bytes": len(data) - off,
			})
		}
	}
	return nil
}

// scanLive is wire.Scan behind the compaction barrier: apply sees the
// payload of every frame logged at or above the barrier generation (the
// newest snapshot already contains the rest). It returns the byte
// length of the valid prefix; an error means damage inside committed
// history, or apply's own.
func scanLive(data []byte, barrier uint64, apply func([]byte) error) (valid int, err error) {
	return wire.Scan(data, func(gen uint64, payload []byte) error {
		if gen < barrier {
			return nil
		}
		return apply(payload)
	})
}

// Compact writes a new snapshot and truncates the log. writeSnapshot
// must serialise the owner's full durable state; it runs with all
// appenders blocked, so the snapshot observes every record the log
// holds (owners apply mutations only after their append returns). The
// snapshot lands atomically — temp file, fsync, rename — under the
// next generation; the generation bump is what makes a crash anywhere
// in Compact safe: before the rename, recovery uses the old snapshot
// and the full log; after it, recovery uses the new snapshot and skips
// every frame of the old generation, truncated or not.
func (w *WAL) Compact(writeSnapshot func(io.Writer) error) error {
	w.appendMu.Lock()
	defer w.appendMu.Unlock()
	wm := w.met.Load()
	start := time.Now()
	next := w.gen + 1
	path := filepath.Join(w.dir, snapshotName(next))
	if err := WriteFileAtomic(path, writeSnapshot); err != nil {
		// Nothing moved: the old snapshot and the full log still recover.
		if wm != nil {
			wm.compactErrors.Inc()
			wm.rec.Record(obs.EventCompactError, map[string]any{"error": err.Error()})
		}
		return fmt.Errorf("store: wal compact: %w", err)
	}
	w.gen = next
	// The snapshot is durable and the barrier moved: everything below
	// is space reclaim, not correctness.
	w.mu.Lock()
	if err := w.f.Truncate(0); err == nil {
		_, _ = w.f.Seek(0, io.SeekStart)
		if w.policy != FsyncOff {
			_ = syncFile(w.f)
		}
	}
	w.mu.Unlock()
	if reclaimed := w.size.Swap(0); wm != nil {
		wm.size.Add(-reclaimed)
	}
	// Sweep superseded snapshots (best effort).
	entries, err := os.ReadDir(w.dir)
	if err == nil {
		for _, e := range entries {
			name := e.Name()
			if filepath.Ext(name) == ".snap" && name < snapshotName(next) {
				_ = os.Remove(filepath.Join(w.dir, name))
			}
		}
	}
	if wm != nil {
		wm.compactions.Inc()
		wm.compactLatency.Since(start)
	}
	return nil
}

// Sync flushes every frame written so far to stable storage, down the
// same leader/follower path as a FsyncBatch append: a frontier some
// fsync already covered costs nothing.
func (w *WAL) Sync() error {
	w.mu.Lock()
	seq := w.writeSeq
	w.mu.Unlock()
	return w.syncUpTo(seq)
}

// syncLoop is the FsyncInterval background syncer.
func (w *WAL) syncLoop(interval time.Duration) {
	defer close(w.done)
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			_ = w.Sync()
		case <-w.stop:
			return
		}
	}
}

// Close stops the background syncer, syncs once more, and closes the
// log file. The owner snapshots (Compact) before Close on a graceful
// drain; Close alone is the crash-adjacent path.
func (w *WAL) Close() error {
	var err error
	w.closeOnce.Do(func() {
		close(w.stop)
		<-w.done
		if w.policy != FsyncOff {
			err = w.Sync()
		}
		_ = w.f.Close()
	})
	return err
}

// WriteFileAtomic writes a file so that a crash at any point leaves
// either the old content or the new, never a torn mix: the content is
// written to a temp file in the same directory, fsynced, renamed over
// the target, and the directory entry fsynced. Shared by the WAL's
// snapshot writer and bmsd's training-state snapshot.
func WriteFileAtomic(path string, write func(io.Writer) error) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	defer func() {
		if tmpName != "" {
			_ = os.Remove(tmpName)
		}
	}()
	if err := write(tmp); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmpName, path); err != nil {
		return err
	}
	tmpName = ""
	// Persist the rename itself: fsync the directory (best effort on
	// filesystems that do not support it).
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		_ = d.Close()
	}
	return nil
}
